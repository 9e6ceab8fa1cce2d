package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.data.TweetGen
import repro.emd.{LocalEmd, TokenEmbedder}

import scala.collection.mutable

/** EMD Globalizer — the paper's end-to-end batch pipeline (Fig. 2/3):
  *
  *   Local EMD → seed candidates (CTrie) → occurrence mining with local
  *   candidate embeddings → global pooling (CandidateBase) → Entity
  *   Classifier (α/β/γ) → final entity mentions.
  *
  * A batch run is one streaming iteration over the whole dataset on an
  * empty CandidateBase: [[StreamingGlobalizer.processBatch]] on a fresh
  * [[StreamingGlobalizer.State]], the same code every micro-batch runs,
  * which also times the iteration. It reads the tweets from
  * [[TweetGen.tweets]], so it plans no query, and it is two one-stage Spark
  * jobs for every system.
  *
  * Timing attribution follows the paper's Table III: "Local EMD time" is
  * the per-sentence EMD pass (for deep systems this includes generating the
  * entity-aware token embeddings for every sentence token — the dominant
  * cost of a real DNN, which we charge explicitly); "Global EMD time" adds
  * the CTrie build, the mining scan, pooling, classification, and output
  * assembly, i.e. the framework's overhead.
  */
object Globalizer {

  final case class Timings(localSec: Double, globalOverheadSec: Double) {
    def totalSec: Double = localSec + globalOverheadSec
  }

  /** Everything a bench or test needs from one pipeline run, held on the
    * driver: the local detections, the mined mentions, the scored candidates
    * and the output spans. `localDets`, `mentions` and `finalSpans` are
    * views of the same values as local Datasets, each built when it is
    * first read; a run builds none of them.
    */
  final case class RunOutput(detections: Seq[Detection],
                             mined: Seq[Detection],
                             scored: Seq[(CandidateRecord, Double)],
                             spans: Seq[Metrics.Span],
                             localEval: EvalCounts,
                             globalEval: EvalCounts,
                             timings: Timings)(spark: SparkSession) {
    import spark.implicits._
    lazy val localDets: Dataset[Detection] = detections.toDS()
    lazy val mentions: Dataset[Detection] = mined.toDS()
    lazy val finalSpans: DataFrame = Metrics.spanFrame(spark, spans)
  }

  /** What the local phase returns, held on the driver: the detections and
    * the gold spans of the tweets it read, each in partition order.
    */
  final case class LocalOutput(dets: Seq[Detection], gold: Seq[Metrics.Span])

  /** Local EMD phase of an iteration, in one narrow job that reads each
    * tweet once: every partition runs [[LocalEmd.detector]] on its tweets
    * and returns their detections and gold spans, which the driver
    * collects in partition order. For deep systems, `chargeEmbeddingCost`
    * additionally materializes token embeddings for every token of the
    * stream (what TweetBase records in the paper) in the same pass; we
    * reduce them to a checksum rather than storing, since the mining phase
    * recomputes deterministically.
    */
  def localPhase(tweets: RDD[Tweet],
                 system: LocalEmd,
                 spec: TweetGen.Spec,
                 chargeEmbeddingCost: Boolean): LocalOutput = {
    val detect = system.detector(spec)
    val charge = system.deep && chargeEmbeddingCost
    val dim = system.dim
    val salt = system.params.salt
    val dsSeed = spec.seed
    val parts = tweets.mapPartitions { ts =>
      val dets = mutable.ArrayBuffer.empty[Detection]
      val gold = mutable.ArrayBuffer.empty[Metrics.Span]
      // The checksum goes back with the partition's result, so the
      // embedding pass cannot be skipped.
      var checksum = 0.0
      ts.foreach { t =>
        dets ++= detect(t)
        gold ++= Metrics.goldOf(t)
        if (charge) t.tokens.indices.foreach { p =>
          val e = TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, p)
          checksum += e(0) + e(dim - 1)
        }
      }
      Iterator.single((dets.toArray, gold.toArray, checksum))
    }.collect()
    LocalOutput(parts.toSeq.flatMap(_._1), parts.toSeq.flatMap(_._2))
  }

  /** The detections of [[localPhase]] over a Dataset's tweets, as a local Dataset. */
  def localPhase(tweets: Dataset[Tweet],
                 system: LocalEmd,
                 spec: TweetGen.Spec,
                 chargeEmbeddingCost: Boolean): Dataset[Detection] = {
    val spark = tweets.sparkSession
    import spark.implicits._
    localPhase(tweets.rdd, system, spec, chargeEmbeddingCost).dets.toDS()
  }

  /** Seed entity candidates: distinct case-insensitive keys of the local
    * detections, sorted.
    */
  def seedKeys(dets: Seq[Detection]): Seq[String] = dets.map(_.key).distinct.sorted

  /** [[seedKeys]] of detections held in a Dataset. */
  def seedKeys(dets: Dataset[Detection]): Seq[String] = seedKeys(dets.collect().toSeq)

  /** Final output assembly from classifier bands, on the driver:
    * α → all mined mentions of the candidate; γ → only Local EMD's own
    * detections of it; β, or no band, → nothing. Starts no Spark job.
    *
    * The union is distinct by construction: the CTrie scan yields
    * non-overlapping spans per sentence, [[LocalEmd.detector]] yields each
    * detection of a sentence once, and a span's key (hence its band) is a
    * function of its span ([[Detection.of]] makes every detection and mined
    * mention), so no span is both α and γ. This holds when (tweetId,
    * sentId) identifies one input row.
    */
  def assembleOutput(mentions: Seq[Detection],
                     localDets: Seq[Detection],
                     band: String => Option[Int]): Seq[Metrics.Span] =
    mentions.collect { case m if band(m.key).contains(EntityClassifier.Alpha) => m.span } ++
      localDets.collect { case d if band(d.key).contains(EntityClassifier.Gamma) => d.span }

  /** [[assembleOutput]] of mined mentions and detections held in Datasets,
    * as a local DataFrame over [[Metrics.SpanCols]]. The mentions are
    * projected to their [[Detection]]s before they are collected, so their
    * embeddings stay on the executors.
    */
  def assembleOutput(mentions: Dataset[MentionEmb],
                     localDets: Dataset[Detection],
                     bands: Map[String, Int]): DataFrame = {
    val spark = mentions.sparkSession
    import spark.implicits._
    val mined = mentions.select("mention.*").as[Detection].collect()
    Metrics.spanFrame(spark, assembleOutput(mined.toSeq, localDets.collect().toSeq, bands.get))
  }

  /** One full pipeline run over a dataset with a trained classifier (and,
    * for deep systems, a trained Phrase Embedder): one
    * [[StreamingGlobalizer.processBatch]] over [[TweetGen.tweets]] on a
    * fresh state, charged with the embedding cost unless told otherwise.
    * It caches nothing and plans no query. After the timed iteration it
    * scores the local detections and the assembled output against the gold
    * spans by set arithmetic ([[Metrics.score]]) on the driver.
    */
  def run(spark: SparkSession,
          spec: TweetGen.Spec,
          system: LocalEmd,
          clf: EntityClassifier,
          phraseEmbedder: Option[PhraseEmbedder],
          chargeEmbeddingCost: Boolean = true): RunOutput = {
    val state = new StreamingGlobalizer.State
    val it = StreamingGlobalizer.processBatch(TweetGen.tweets(spark.sparkContext, spec),
      spec, system, clf, phraseEmbedder, state, chargeEmbeddingCost)
    RunOutput(it.detections, it.mined, state.scored, it.spans,
      Metrics.score(it.detections.map(_.span), it.gold), Metrics.score(it.spans, it.gold), it.timings)(spark)
  }
}
