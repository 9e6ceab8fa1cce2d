package repro.baseline

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.{GlobalPooling, Tweet}
import repro.data.TweetGen
import repro.emd.{LocalEmd, TokenEmbedder}
import repro.nn.MlpClassifier
import repro.util.Rng

/** HIRE-NER baseline (Luo et al., AAAI 2020) — document-level global EMD.
  *
  * HIRE-NER distills non-local information for every unique *token* from
  * the whole document (here: the whole stream, treated as one document)
  * into a memory structure, appends it to the token's sentence-level
  * embedding, and lets a token-level decoder emit labels.
  *
  * Our reproduction keeps that architecture: per-token local embeddings
  * (the same entity-aware embedding space as the deep Local EMD system),
  * a global memory = mean embedding per lower-cased token type across the
  * stream, and an MLP decoder over [local ⊕ global] per token; maximal
  * runs of entity-labelled tokens become predicted mentions.
  *
  * The paper's observed weakness — "adding non-local contextual information
  * inevitably introduces noise" — arises here structurally: token-type
  * pooling mixes entity and non-entity usages of the same token (collision
  * tokens, entity-like lures), and exact-span scoring punishes the
  * per-token decoder's boundary fragmentation on multi-token entities.
  */
object HireNer {

  /** One token occurrence: local embedding, token-type key, gold label. */
  final case class TokenOcc(tweetId: Long, sentId: Int, pos: Int, tokenKey: String,
                            local: Array[Double], isEntity: Boolean)

  def tokenOccurrences(tweets: Dataset[Tweet],
                       dim: Int,
                       salt: Long,
                       datasetSeed: Long): Dataset[TokenOcc] = {
    val spark = tweets.sparkSession
    import spark.implicits._
    tweets.flatMap { t =>
      t.tokens.indices.map { p =>
        val inGold = t.gold.exists(g => p >= g.start && p < g.start + g.len)
        TokenOcc(t.tweetId, t.sentId, p, t.tokens(p).toLowerCase(java.util.Locale.ROOT),
          TokenEmbedder.tokenEmbedding(dim, salt, datasetSeed, t, p), inGold)
      }
    }
  }

  /** Global memory: mean local embedding per token type. */
  def globalMemory(occ: Dataset[TokenOcc]): Map[String, Array[Double]] =
    GlobalPooling.pools(occ)(_.tokenKey, _.local).collect()
      .map { case (key, p) => key -> p.mean }
      .toMap

  private def featuresOf(local: Array[Double], global: Array[Double]): Array[Double] =
    local ++ global

  /** Train the token decoder on D5 (subsampled for tractability). */
  def train(spark: SparkSession,
            system: LocalEmd,
            sampleN: Int = 20000,
            seed: Long = 0x41EEL,
            spec: TweetGen.Spec = TweetGen.D5): MlpClassifier = {
    val tweets = TweetGen.generate(spark, spec).persist(StorageLevel.MEMORY_AND_DISK)
    val occ = tokenOccurrences(tweets, system.dim, system.params.salt, spec.seed)
      .persist(StorageLevel.MEMORY_AND_DISK)
    val memory = globalMemory(occ)
    val bc = spark.sparkContext.broadcast(memory)

    // Deterministic subsample, entity tokens kept at a higher rate so the
    // decoder sees a balanced class mix.
    val sampled = occ.filter { o =>
      val u = Rng.unif(seed, o.tweetId, o.pos.toLong)
      if (o.isEntity) u < 0.35 else u < 0.04
    }.collect().take(sampleN)
    occ.unpersist(); tweets.unpersist()

    val examples = sampled.map { o =>
      (featuresOf(o.local, bc.value(o.tokenKey)), if (o.isEntity) 1.0 else 0.0)
    }.toIndexedSeq
    val (trainIdx, validIdx) = examples.indices.partition(i => Rng.unif(seed, 2L, i.toLong) < 0.8)
    val mlp = new MlpClassifier(Array(2 * system.dim, 64, 32, 1), seed)
    mlp.fit(trainIdx.map(examples).toIndexedSeq, validIdx.map(examples).toIndexedSeq,
      lr = 0.0015, batchSize = 128, maxEpochs = 150, patience = 15, seed = seed)
    mlp
  }

  /** Run HIRE-NER over a dataset: label tokens, assemble maximal entity runs. */
  def run(spark: SparkSession,
          spec: TweetGen.Spec,
          system: LocalEmd,
          decoder: MlpClassifier): DataFrame = {
    import spark.implicits._
    val tweets = TweetGen.generate(spark, spec).persist(StorageLevel.MEMORY_AND_DISK)
    val occ = tokenOccurrences(tweets, system.dim, system.params.salt, spec.seed)
      .persist(StorageLevel.MEMORY_AND_DISK)
    val memory = spark.sparkContext.broadcast(globalMemory(occ))
    val dec = spark.sparkContext.broadcast(decoder)

    // Per-sentence: classify each token, emit maximal runs of entity tokens.
    val spans = occ
      .groupByKey(o => (o.tweetId, o.sentId))
      .flatMapGroups { (key: (Long, Int), it: Iterator[TokenOcc]) =>
        val (tweetId, sentId) = key
        val toks = it.toSeq.sortBy(_.pos)
        val flags = toks.map(o => dec.value.predictProba(featuresOf(o.local, memory.value(o.tokenKey))) >= 0.5)
        val out = Seq.newBuilder[(Long, Int, Int, Int)]
        var i = 0
        while (i < flags.length) {
          if (flags(i)) {
            var j = i
            while (j + 1 < flags.length && flags(j + 1)) j += 1
            out += ((tweetId, sentId, toks(i).pos, j - i + 1))
            i = j + 1
          } else i += 1
        }
        out.result()
      }
      .toDF("tweetId", "sentId", "start", "len")
      .distinct()
      .cache()
    spans.count()
    occ.unpersist(); tweets.unpersist()
    spans
  }
}
