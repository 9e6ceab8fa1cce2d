package repro.data

import java.util.Locale
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{GoldSpan, LureSpan, Tweet}
import repro.util.Rng

/** Deterministic synthetic tweet-stream generator (dataset substitute).
  *
  * The paper evaluates on crawled Twitter streams (D1–D4), a training stream
  * (D5) and two third-party corpora (WNUT17, BTC). None are available
  * offline, so we generate streams that reproduce the properties the
  * framework exploits:
  *
  *   - **streaming** datasets repeat a finite entity pool with a Zipf
  *     popularity law (topical streams re-mention the same entities);
  *   - **non-streaming** datasets sample entities near-uniformly from a
  *     large pool, so most entities occur once or twice;
  *   - mentions appear in capitalization variants (proper / lowercase /
  *     ALLCAPS / partial capitalization), plus whole-tweet styles (ALLCAPS
  *     tweets, all-lowercase tweets, Title-Case tweets) that make
  *     capitalization non-discriminative;
  *   - non-entity "lure" phrases look entity-like in some occurrences.
  *
  * Every tweet is a pure function of (spec.seed, tweetId), so the Spark
  * generation and the local reference generation are bitwise identical.
  * [[tweets]] is the one distributed generator of any id range: an RDD
  * sliced exactly as `spark.range` slices the same ids, read without
  * planning a query; [[generate]] is the whole dataset as a Dataset.
  */
object TweetGen {

  /** Whole-tweet capitalization styles. */
  private object Style {
    val Normal = 0; val AllCaps = 1; val AllLower = 2; val TitleAll = 3
  }

  final case class Spec(name: String,
                        nTweets: Int,
                        nEntities: Int,
                        nLures: Int,
                        zipfAlpha: Double,
                        mentionDist: IndexedSeq[Double],
                        lureDist: IndexedSeq[Double],
                        hardness: Double,
                        streaming: Boolean,
                        seed: Long) extends Serializable {
    @transient lazy val zipf = new Rng.Zipf(nEntities, zipfAlpha)

    def entityKey(entityId: Long): String = Vocab.keyOf(Vocab.entityTokens(seed, entityId))

    /** All canonical entity keys of this dataset's pool (driver-side). */
    def entityKeys: Set[String] = (1L to nEntities).map(entityKey).toSet
  }

  private val streamingMentions = IndexedSeq(0.30, 0.50, 0.15, 0.05)
  private val batchMentions     = IndexedSeq(0.35, 0.50, 0.12, 0.03)
  private val lureDist          = IndexedSeq(0.55, 0.35, 0.10)

  // Streaming datasets D1–D4 (sized after Table I; entity pools sized so the
  // distinct-mentioned counts land near the paper's 283/906/443/674, which
  // sum to the 2306 unique entities the error analysis reports).
  val D1: Spec = Spec("D1", 1000, 350, 300, 0.85, streamingMentions, lureDist, 1.00, streaming = true, seed = 11)
  val D2: Spec = Spec("D2", 2000, 1100, 700, 0.80, streamingMentions, lureDist, 1.12, streaming = true, seed = 12)
  val D3: Spec = Spec("D3", 3000, 550, 500, 0.90, streamingMentions, lureDist, 0.88, streaming = true, seed = 13)
  val D4: Spec = Spec("D4", 6000, 850, 800, 0.95, streamingMentions, lureDist, 0.95, streaming = true, seed = 14)

  /** Training stream for the Entity Classifier (paper: 38K tweets, ≈7000 entities). */
  val D5: Spec = Spec("D5", 38000, 9000, 3000, 0.85, streamingMentions, lureDist, 1.00, streaming = true, seed = 15)

  /** Reduced training stream for unit/integration tests (same structure as D5). */
  val D5Mini: Spec = Spec("D5Mini", 4000, 1100, 500, 0.85, streamingMentions, lureDist, 1.00, streaming = true, seed = 15)

  /** Reduced evaluation stream for unit/integration tests. */
  val DevStream: Spec = Spec("DevStream", 600, 220, 200, 0.85, streamingMentions, lureDist, 1.00, streaming = true, seed = 18)

  // Non-streaming benchmarks: near-uniform entity sampling, little repetition.
  val WNUT17: Spec = Spec("WNUT17", 1287, 1300, 600, 0.15, batchMentions, lureDist, 1.15, streaming = false, seed = 16)
  val BTC: Spec    = Spec("BTC", 9553, 5200, 1800, 0.30, batchMentions, lureDist, 1.00, streaming = false, seed = 17)

  val evalSpecs: Seq[Spec] = Seq(D1, D2, D3, D4, WNUT17, BTC)
  val allSpecs: Seq[Spec]  = evalSpecs :+ D5

  private def sample(dist: IndexedSeq[Double], u: Double): Int = {
    var acc = 0.0
    var i = 0
    while (i < dist.length) {
      acc += dist(i)
      if (u < acc) return i
      i += 1
    }
    dist.length - 1
  }

  /** Realize a mention's surface tokens from its canonical form and variant draw. */
  private def realizeMention(canonical: IndexedSeq[String], u: Double): IndexedSeq[String] = {
    if (u < 0.65) canonical                                        // proper capitalization
    else if (u < 0.83) canonical.map(_.toLowerCase(Locale.ROOT))   // no capitalization
    else if (u < 0.93) canonical.map(_.toUpperCase(Locale.ROOT))   // full capitalization
    else if (canonical.length > 1)                                 // substring capitalization
      canonical.head +: canonical.tail.map(_.toLowerCase(Locale.ROOT))
    else canonical
  }

  private def realizeLure(canonical: IndexedSeq[String], u: Double): IndexedSeq[String] =
    if (u < 0.35) canonical else canonical.map(_.toLowerCase(Locale.ROOT))

  private def fillerToken(spec: Spec, tweetId: Long, salt: Long): String =
    if (Rng.unif(spec.seed, tweetId, salt, 1L) < 0.40)
      Vocab.stopwords(Rng.int(Vocab.stopwords.length, spec.seed, tweetId, salt, 2L))
    else
      Vocab.fillerWord(Rng.int(Vocab.nFiller, spec.seed, tweetId, salt, 3L))

  /** Deterministically construct one tweet-sentence. `tweetId` in [0, nTweets). */
  def makeTweet(spec: Spec, tweetId: Long): Tweet = {
    def u(tag: Long, extra: Long = 0L): Double = Rng.unif(spec.seed, tweetId, tag, extra)

    val style = {
      val s = u(1)
      if (s < 0.03) Style.AllCaps
      else if (s < 0.05) Style.AllLower
      else if (s < 0.07) Style.TitleAll
      else Style.Normal
    }

    val nMent = sample(spec.mentionDist, u(2))
    val nLure = sample(spec.lureDist, u(3))

    // (isEntity, id) items in a deterministic shuffled order.
    val mentionItems = (0 until nMent).map { m =>
      (true, spec.zipf.rank(u(10, m.toLong)).toLong, m.toLong)
    }
    val lureItems = (0 until nLure).map { l =>
      (false, 1L + Rng.int(spec.nLures, spec.seed, tweetId, 20L, l.toLong).toLong, l.toLong)
    }
    val items = (mentionItems ++ lureItems)
      .sortBy { case (isEnt, id, k) => Rng.hash(spec.seed, tweetId, 30L, if (isEnt) 1L else 0L, id, k) }

    val tokens = scala.collection.mutable.ArrayBuffer.empty[String]
    val gold   = scala.collection.mutable.ArrayBuffer.empty[GoldSpan]
    val lures  = scala.collection.mutable.ArrayBuffer.empty[LureSpan]

    def appendFillers(count: Int, salt: Long): Unit =
      (0 until count).foreach(i => tokens += fillerToken(spec, tweetId, salt * 100 + i))

    appendFillers(Rng.int(3, spec.seed, tweetId, 40L), 41L) // 0..2 leading fillers

    items.zipWithIndex.foreach { case ((isEnt, id, k), idx) =>
      if (idx > 0) appendFillers(1 + Rng.int(4, spec.seed, tweetId, 50L, idx.toLong), 51L + idx)
      val start = tokens.length
      if (isEnt) {
        val canonical = Vocab.entityTokens(spec.seed, id)
        tokens ++= realizeMention(canonical, u(60, Rng.hash(id, k)))
        gold += GoldSpan(start, canonical.length, id)
      } else {
        val canonical = Vocab.lureTokens(spec.seed, id)
        tokens ++= realizeLure(canonical, u(70, Rng.hash(id, k)))
        lures += LureSpan(start, canonical.length, id)
      }
    }

    appendFillers(1 + Rng.int(3, spec.seed, tweetId, 80L), 81L) // 1..3 trailing fillers

    val styled: Seq[String] = style match {
      case Style.AllCaps  => tokens.toSeq.map(_.toUpperCase(Locale.ROOT))
      case Style.AllLower => tokens.toSeq.map(_.toLowerCase(Locale.ROOT))
      case Style.TitleAll => tokens.toSeq.map(Vocab.capitalize)
      case _              => tokens.toSeq
    }

    Tweet(tweetId, 0, styled, gold.toSeq, lures.toSeq)
  }

  /** The whole dataset as an RDD. */
  def tweets(sc: SparkContext, spec: Spec): RDD[Tweet] = tweets(sc, spec, 0L, spec.nTweets.toLong)

  /** The tweets with ids in [`from`, `until`) as an RDD in
    * `sc.defaultParallelism` slices, holding in each slice the ids
    * `spark.range(from, until)` holds in the same partition. A pool's bits
    * depend on where partitions split it, so this one method decides them.
    */
  def tweets(sc: SparkContext, spec: Spec, from: Long, until: Long): RDD[Tweet] =
    sc.range(from, until, 1, sc.defaultParallelism).map(makeTweet(spec, _))

  /** [[tweets]] as a Dataset, for relational callers. */
  def generate(spark: SparkSession, spec: Spec): Dataset[Tweet] = {
    import spark.implicits._
    spark.createDataset(tweets(spark.sparkContext, spec))
  }

  /** Single-node reference generation (tests compare it with `generate`). */
  def generateLocal(spec: Spec): Seq[Tweet] =
    (0L until spec.nTweets.toLong).map(id => makeTweet(spec, id))
}
