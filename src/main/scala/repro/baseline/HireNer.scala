package repro.baseline

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.{Detection, GlobalPooling, Metrics, Tweet}
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
  * runs of entity-labelled tokens become predicted mentions. Every pass is
  * a per-tweet map over the tweets of [[TweetGen.tweets]], so a tweet is
  * decoded where it stands and no pass plans a query.
  *
  * The paper's observed weakness — "adding non-local contextual information
  * inevitably introduces noise" — arises here structurally: token-type
  * pooling mixes entity and non-entity usages of the same token (collision
  * tokens, entity-like lures), and exact-span scoring punishes the
  * per-token decoder's boundary fragmentation on multi-token entities.
  */
object HireNer {

  private def tokenKey(t: Tweet, p: Int): String = Detection.keyOf(t.tokens(p))

  private def local(system: LocalEmd, datasetSeed: Long)(t: Tweet, p: Int): Array[Double] =
    TokenEmbedder.tokenEmbedding(system.dim, system.params.salt, datasetSeed, t, p)

  /** True iff token `p` of `t` lies inside a gold mention. */
  private[baseline] def isEntity(t: Tweet, p: Int): Boolean =
    t.gold.exists(g => p >= g.start && p < g.start + g.len)

  /** Global memory: mean local embedding per lower-cased token type. */
  def globalMemory(tweets: RDD[Tweet], system: LocalEmd, spec: TweetGen.Spec): Map[String, Array[Double]] = {
    val emb = local(system, spec.seed) _
    val occ = tweets.flatMap(t => t.tokens.indices.map(p => (tokenKey(t, p), emb(t, p))))
    GlobalPooling.pools(occ)(_._1, _._2).map { case (key, p) => key -> p.mean }.toMap
  }

  /** Decoder input of token `p` of `t`: local ⊕ memory(token type). */
  private def features(system: LocalEmd, datasetSeed: Long, memory: Map[String, Array[Double]])
                      (t: Tweet, p: Int): Array[Double] =
    local(system, datasetSeed)(t, p) ++ memory(tokenKey(t, p))

  /** Seed of the decoder's initialization, subsample, split and shuffle. */
  private val Seed = 0x41EEL

  /** Train the token decoder on D5 (subsampled for tractability). */
  def train(spark: SparkSession,
            system: LocalEmd,
            sampleN: Int = 20000,
            spec: TweetGen.Spec = TweetGen.D5): MlpClassifier = {
    val tweets = TweetGen.tweets(spark.sparkContext, spec)
    val memory = spark.sparkContext.broadcast(globalMemory(tweets, system, spec))

    // Deterministic subsample, entity tokens kept at a higher rate so the
    // decoder sees a balanced class mix.
    val dsSeed = spec.seed
    val examples =
      try tweets.flatMap { t =>
        t.tokens.indices.flatMap { p =>
          val entity = isEntity(t, p)
          Option.when(Rng.unif(Seed, t.tweetId, p.toLong) < (if (entity) 0.35 else 0.04))(
            (features(system, dsSeed, memory.value)(t, p), if (entity) 1.0 else 0.0))
        }
      }.take(sampleN).toIndexedSeq
      finally memory.destroy()

    val (trainIdx, validIdx) = examples.indices.partition(i => Rng.unif(Seed, 2L, i.toLong) < 0.8)
    val mlp = new MlpClassifier(Array(2 * system.dim, 64, 32, 1), Seed)
    mlp.fit(trainIdx.map(examples), validIdx.map(examples),
      lr = 0.0015, batchSize = 128, maxEpochs = 150, patience = 15, seed = Seed)
    mlp
  }

  /** Run HIRE-NER over a dataset: label each tweet's tokens in order and
    * return its maximal entity runs as driver-side spans, decoded in one
    * narrow job over the tweets. Both broadcasts are destroyed before it
    * returns.
    */
  def run(spark: SparkSession,
          spec: TweetGen.Spec,
          system: LocalEmd,
          decoder: MlpClassifier): Seq[Metrics.Span] = {
    val tweets = TweetGen.tweets(spark.sparkContext, spec)
    val memory = spark.sparkContext.broadcast(globalMemory(tweets, system, spec))
    val dec = spark.sparkContext.broadcast(decoder)
    val dsSeed = spec.seed
    try tweets.flatMap { t =>
      val feat = features(system, dsSeed, memory.value) _
      val flags = t.tokens.indices.map(p => dec.value.predictProba(feat(t, p)) >= 0.5)
      flags.indices.collect { case s if flags(s) && (s == 0 || !flags(s - 1)) =>
        val end = flags.indexWhere(f => !f, s)
        (t.tweetId, t.sentId, s, (if (end < 0) flags.length else end) - s)
      }
    }.collect().toSeq
    finally { memory.destroy(); dec.destroy() }
  }
}
