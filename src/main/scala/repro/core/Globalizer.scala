package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.data.TweetGen
import repro.emd.{LocalEmd, TokenEmbedder}

/** EMD Globalizer — the paper's end-to-end batch pipeline (Fig. 2/3):
  *
  *   Local EMD → seed candidates (CTrie) → occurrence mining with local
  *   candidate embeddings → global pooling (CandidateBase) → Entity
  *   Classifier (α/β/γ) → final entity mentions.
  *
  * A batch run is one streaming iteration over the whole dataset on an
  * empty CandidateBase: [[localPhase]] here, then
  * [[StreamingGlobalizer.globalPhase]] on a fresh
  * [[StreamingGlobalizer.State]], the same code every micro-batch runs.
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

  /** Everything a bench or test needs from one pipeline run. */
  final case class RunOutput(localDets: Dataset[Detection],
                             mentions: Dataset[MentionEmb],
                             scored: Seq[(CandidateRecord, Double)],
                             finalSpans: DataFrame,
                             localEval: EvalCounts,
                             globalEval: EvalCounts,
                             timings: Timings) {
    /** Releases the three Datasets a run returns cached. */
    def unpersist(): RunOutput = { Seq(localDets, mentions, finalSpans).foreach(_.unpersist()); this }
  }

  private def now(): Long = System.nanoTime()
  private def secs(from: Long, to: Long): Double = (to - from) / 1e9

  /** Local EMD phase. For deep systems, `chargeEmbeddingCost` additionally
    * materializes token embeddings for every token of the stream (what
    * TweetBase records in the paper); we reduce them to a checksum rather
    * than storing, since the mining phase recomputes deterministically.
    */
  def localPhase(tweets: Dataset[Tweet],
                 system: LocalEmd,
                 spec: TweetGen.Spec,
                 chargeEmbeddingCost: Boolean): Dataset[Detection] = {
    val spark = tweets.sparkSession
    import spark.implicits._
    val dets = fill(system.detectAll(tweets, spec).persist(StorageLevel.MEMORY_AND_DISK))
    if (system.deep && chargeEmbeddingCost) {
      val dim = system.dim
      val salt = system.params.salt
      val dsSeed = spec.seed
      // Force the full-stream embedding pass; the checksum defeats laziness,
      // and a sum (unlike a reduce) is defined on an empty batch.
      tweets.map { t =>
        var s = 0.0
        t.tokens.indices.foreach { p =>
          val e = TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, p)
          s += e(0) + e(dim - 1)
        }
        s
      }.rdd.sum()
    }
    dets
  }

  /** Fills the cache of a persisted Dataset in one narrow job. (Under AQE a
    * `Dataset.count()` plans a partial and a final aggregate: two or three
    * jobs.)
    */
  private[core] def fill[T](ds: Dataset[T]): Dataset[T] = {
    ds.rdd.count()
    ds
  }

  /** Seed entity candidates: distinct case-insensitive keys of the local
    * detections, sorted. Each partition sends its own distinct keys and the
    * driver merges them: one narrow job, no shuffle.
    */
  def seedKeys(dets: Dataset[Detection]): Seq[String] = {
    val spark = dets.sparkSession
    import spark.implicits._
    dets.mapPartitions(_.map(_.key).toSet.iterator).collect().distinct.sorted.toSeq
  }

  /** Final output assembly from classifier bands:
    * α → all mined mentions of the candidate; γ → only Local EMD's own
    * detections of it; β → nothing.
    *
    * The union is distinct by construction, so it needs no shuffle: the
    * CTrie scan yields non-overlapping spans per sentence, `detectAll`
    * yields each detection of a sentence once, and a span's key (hence its
    * band) is a function of its surface, so no span is both α and γ. This
    * holds when (tweetId, sentId) identifies one input row.
    */
  def assembleOutput(mentions: Dataset[MentionEmb],
                     localDets: Dataset[Detection],
                     bands: Map[String, Int]): DataFrame = {
    val band = mentions.sparkSession.sparkContext.broadcast(bands)
    val spanCols = Metrics.SpanCols.map(col)
    val alpha = mentions.filter(m => band.value.get(m.key).contains(EntityClassifier.Alpha))
    val gamma = localDets.filter(d => band.value.get(d.key).contains(EntityClassifier.Gamma))
    alpha.select(spanCols: _*).union(gamma.select(spanCols: _*))
  }

  /** One full pipeline run over a dataset with a trained classifier (and,
    * for deep systems, a trained Phrase Embedder).
    */
  def run(spark: SparkSession,
          spec: TweetGen.Spec,
          system: LocalEmd,
          clf: EntityClassifier,
          phraseEmbedder: Option[PhraseEmbedder],
          chargeEmbeddingCost: Boolean = true): RunOutput = {
    // Data loading, not attributed to either phase.
    val tweets = fill(TweetGen.generate(spark, spec).persist(StorageLevel.MEMORY_AND_DISK))

    val t0 = now()
    val localDets = localPhase(tweets, system, spec, chargeEmbeddingCost)
    val t1 = now()
    val global = StreamingGlobalizer.globalPhase(tweets, localDets, spec, system, clf, phraseEmbedder,
      new StreamingGlobalizer.State)
    val t2 = now()

    val Seq(localEval, globalEval) =
      Metrics.evaluateAll(Seq(localDets.toDF(), global.spans), Metrics.goldRows(tweets))
    tweets.unpersist()

    RunOutput(localDets, global.mentions, global.scored, global.spans, localEval, globalEval,
      Timings(secs(t0, t1), secs(t1, t2)))
  }
}
