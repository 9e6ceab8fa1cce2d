package repro.emd

import org.apache.spark.sql.Dataset
import repro.core.{Detection, Tweet}
import repro.core.SyntacticEmbedding.{allLower, allUpper, firstCap}
import repro.data.TweetGen
import repro.util.Rng

/** A Local EMD system: processes each tweet-sentence individually and emits
  * likely entity mentions (paper Sec. IV).
  *
  * The four instantiations (NP Chunker, TwitterNLP, Aguilar et al.,
  * BERTweet) are simulated: the production systems are unavailable offline,
  * and Global EMD treats them as black boxes anyway. Each simulator
  * reproduces the error structure the framework exploits:
  *
  *   - per-mention detection is an independent draw (the same entity is
  *     found in some tweets, missed in others — the paper's case study);
  *   - detection probability depends on the surface capitalization variant
  *     (deep systems are less caps-sensitive than CRF/chunker systems);
  *   - multi-token detections are sometimes clipped by one token
  *     ("partial extraction");
  *   - lure phrases are emitted as false positives at a per-system rate,
  *     and chunker-style systems additionally emit filler-word junk.
  *
  * All draws are keyed on (system salt, tweet id, span), so runs are
  * deterministic and independent of partitioning.
  */
final case class SysParams(name: String,
                           deep: Boolean,
                           dim: Int,
                           salt: Long,
                           baseRecall: Double,
                           capsFactor: Double,
                           partialRate: Double,
                           lureFpRate: Double,
                           lureLowercaseFactor: Double,
                           fillerJunkRate: Double,
                           noveltyRate: Double,
                           noveltyPenalty: Double) extends Serializable

trait LocalEmd extends Serializable {
  def params: SysParams
  def name: String = params.name
  def deep: Boolean = params.deep
  def dim: Int = params.dim

  /** Detection-probability multiplier from the mention's surface caps variant. */
  private def variantFactor(mention: Seq[String]): Double = {
    val cf = params.capsFactor
    if (mention.forall(allUpper)) (1.0 + cf) / 2.0
    else if (mention.forall(firstCap)) 1.0
    else if (mention.forall(allLower)) cf
    else 0.5 * (1.0 + cf) // mixed / substring capitalization
  }

  /** True iff `entityId` is "novel" to this system in this dataset — absent
    * from its embeddings/gazetteers, so ALL its mentions are detected with a
    * heavy penalty. This entity-level correlated miss is what the paper's
    * error analysis measures: e.g. BERTweet entirely missed 1018 of 2306
    * stream entities (26.35% of mentions), putting them out of the
    * framework's reach.
    */
  def isNovelEntity(datasetSeed: Long, entityId: Long): Boolean =
    Rng.unif(params.salt, 7L, datasetSeed, entityId) < params.noveltyRate

  /** Simulate EMD on one tweet-sentence. `hardness` is the dataset's
    * difficulty multiplier (recall is divided by it); `datasetSeed`
    * identifies the dataset's entity pool for the novelty draw.
    */
  def detect(tweet: Tweet, hardness: Double, datasetSeed: Long): Seq[Detection] = {
    val p = params
    val out = Seq.newBuilder[Detection]

    tweet.gold.foreach { g =>
      val mention = tweet.tokens.slice(g.start, g.start + g.len)
      // Per-occurrence context wobble in [0.75, 1.25]: the "varying contexts"
      // that make per-message detection inconsistent.
      val wobble = 0.75 + 0.5 * Rng.unif(p.salt, tweet.tweetId, g.start.toLong, 1L)
      val novelty = if (isNovelEntity(datasetSeed, g.entityId)) p.noveltyPenalty else 1.0
      val prob = math.min(1.0, p.baseRecall * novelty * variantFactor(mention) * wobble / hardness)
      if (Rng.unif(p.salt, tweet.tweetId, g.start.toLong, 2L) < prob) {
        val len =
          if (g.len > 1 && Rng.unif(p.salt, tweet.tweetId, g.start.toLong, 3L) < p.partialRate) g.len - 1
          else g.len
        out += Detection.of(tweet, g.start, len)
      }
    }

    tweet.lures.foreach { l =>
      val lure = tweet.tokens.slice(l.start, l.start + l.len)
      val capFac = if (lure.exists(firstCap) || lure.exists(allUpper)) 1.0 else p.lureLowercaseFactor
      if (Rng.unif(p.salt, tweet.tweetId, l.start.toLong, 4L) < p.lureFpRate * capFac)
        out += Detection.of(tweet, l.start, l.len)
    }

    // Chunker-style junk: random filler unigrams outside all spans.
    // fillerJunkRate is the expected junk count per tweet (may exceed 1).
    val junkDraws = p.fillerJunkRate.toInt +
      (if (Rng.unif(p.salt, tweet.tweetId, 5L) < p.fillerJunkRate - p.fillerJunkRate.toInt) 1 else 0)
    if (junkDraws > 0 && tweet.tokens.nonEmpty) {
      val covered = (tweet.gold.flatMap(g => g.start until g.start + g.len) ++
        tweet.lures.flatMap(l => l.start until l.start + l.len)).toSet
      val free = tweet.tokens.indices.filterNot(covered.contains)
      (0 until junkDraws).foreach { j =>
        if (free.nonEmpty) {
          val pos = free(Rng.int(free.size, p.salt, tweet.tweetId, 6L, j.toLong))
          out += Detection.of(tweet, pos, 1)
        }
      }
    }

    out.result()
  }

  /** Local EMD on one tweet-sentence of `spec`. A sentence's repeated
    * detections (two junk draws may pick the same token) are emitted once,
    * so every span of a dataset's detections is distinct:
    * `Globalizer.assembleOutput` relies on it.
    */
  def detector(spec: TweetGen.Spec): Tweet => Seq[Detection] = {
    val hardness = spec.hardness
    val dsSeed = spec.seed
    t => detect(t, hardness, dsSeed).distinct
  }

  /** Distributed Local EMD over a dataset: [[detector]] on every tweet. */
  def detectAll(tweets: Dataset[Tweet], spec: TweetGen.Spec): Dataset[Detection] = {
    val spark = tweets.sparkSession
    import spark.implicits._
    tweets.flatMap(detector(spec))
  }
}

/** 1. Chunker-based EMD (TweeboParser NP chunker): liberal noun-phrase
  * extraction — decent recall, poor precision, strongly caps-insensitive
  * junk emission.
  */
object NpChunker extends LocalEmd {
  val params: SysParams = SysParams("NP Chunker", deep = false, dim = 0, salt = 0xC401L,
    baseRecall = 1.00, capsFactor = 0.60, partialRate = 0.18,
    lureFpRate = 0.75, lureLowercaseFactor = 0.80, fillerJunkRate = 0.45,
    noveltyRate = 0.30, noveltyPenalty = 0.015)
}

/** 2. CRF-based tagging (TwitterNLP): moderate recall, capitalization-
  * dependent, moderate false positives.
  */
object TwitterNlp extends LocalEmd {
  val params: SysParams = SysParams("TwitterNLP", deep = false, dim = 0, salt = 0xC402L,
    baseRecall = 0.92, capsFactor = 0.42, partialRate = 0.12,
    lureFpRate = 0.50, lureLowercaseFactor = 0.20, fillerJunkRate = 0.10,
    noveltyRate = 0.36, noveltyPenalty = 0.015)
}

/** 3. Multi-task BiLSTM-CNN-CRF (Aguilar et al.) — the strongest local
  * system: Twitter-trained embeddings and gazetteers give the best recall
  * and precision; 100-dim entity-aware token embeddings.
  */
object Aguilar extends LocalEmd {
  val params: SysParams = SysParams("Aguilar et al.", deep = true, dim = 100, salt = 0xC403L,
    baseRecall = 0.87, capsFactor = 0.85, partialRate = 0.08,
    lureFpRate = 0.28, lureLowercaseFactor = 0.25, fillerJunkRate = 0.05,
    noveltyRate = 0.30, noveltyPenalty = 0.015)
}

/** 4. BERTweet fine-tuned for EMD — strong but slightly behind Aguilar on
  * these streams (as in the paper's case study); 300-dim token embeddings
  * (the paper reduces BERT's 768 to 300 in the Phrase Embedder; we generate
  * at the reduced width directly).
  */
object BerTweet extends LocalEmd {
  val params: SysParams = SysParams("BERTweet", deep = true, dim = 300, salt = 0xC404L,
    baseRecall = 0.83, capsFactor = 0.80, partialRate = 0.10,
    lureFpRate = 0.48, lureLowercaseFactor = 0.25, fillerJunkRate = 0.08,
    noveltyRate = 0.34, noveltyPenalty = 0.015)
}

object LocalEmd {
  val all: Seq[LocalEmd] = Seq(NpChunker, TwitterNlp, Aguilar, BerTweet)
}
