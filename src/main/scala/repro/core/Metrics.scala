package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** Span-exact EMD evaluation — WNUT's "F1 (surface)": a predicted mention
  * is a true positive iff its (tweetId, sentId, start, len) exactly matches
  * a gold mention. Counting is relational (distinct spans, anti/inner
  * joins) so it can be cross-checked against the DuckDB oracle.
  */
final case class EvalCounts(tp: Long, fp: Long, fn: Long) {
  def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
  def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
  def f1: Double = {
    val p = precision; val r = recall
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }
}

object Metrics {

  val SpanCols: Seq[String] = Seq("tweetId", "sentId", "start", "len")

  /** Gold mention spans of a dataset as a DataFrame(tweetId, sentId, start, len). */
  def goldSpans(tweets: Dataset[Tweet]): DataFrame = {
    val spark = tweets.sparkSession
    import spark.implicits._
    tweets
      .flatMap(t => t.gold.map(g => (t.tweetId, t.sentId, g.start, g.len)))
      .toDF(SpanCols: _*)
      .distinct()
  }

  /** Normalize any span-bearing DataFrame to distinct (tweetId, sentId, start, len). */
  def normalize(spans: DataFrame): DataFrame =
    spans.select(SpanCols.map(col): _*).distinct()

  def evaluate(predicted: DataFrame, tweets: Dataset[Tweet]): EvalCounts =
    evaluateAgainst(predicted, goldSpans(tweets))

  def evaluateAgainst(predicted: DataFrame, gold: DataFrame): EvalCounts = {
    val pred = normalize(predicted).cache()
    val g    = gold.cache()
    val tp = pred.join(g, SpanCols, "inner").count()
    val nPred = pred.count()
    val nGold = g.count()
    pred.unpersist()
    g.unpersist()
    EvalCounts(tp, nPred - tp, nGold - tp)
  }

  /** Detections → span DataFrame. */
  def detectionSpans(dets: Dataset[Detection]): DataFrame = {
    val spark = dets.sparkSession
    import spark.implicits._
    dets.map(d => (d.tweetId, d.sentId, d.start, d.len)).toDF(SpanCols: _*).distinct()
  }

  /** Mentions → span DataFrame. */
  def mentionSpans(ms: Dataset[MentionEmb]): DataFrame = {
    val spark = ms.sparkSession
    import spark.implicits._
    ms.map(m => (m.tweetId, m.sentId, m.start, m.len)).toDF(SpanCols: _*).distinct()
  }
}
