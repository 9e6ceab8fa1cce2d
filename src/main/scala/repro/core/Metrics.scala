package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.functions.col

/** Span-exact EMD evaluation — WNUT's "F1 (surface)": a predicted mention
  * is a true positive iff its (tweetId, sentId, start, len) exactly matches
  * a gold mention. Spans are driver-side values and counting is set
  * arithmetic ([[score]]), cross-checked against the DuckDB oracle.
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

  /** (tweetId, sentId, start, len): the identity of a span in evaluation. */
  type Span = (Long, Int, Int, Int)

  val SpanCols: Seq[String] = Seq("tweetId", "sentId", "start", "len")

  private val SpanEncoder: Encoder[Span] =
    Encoders.tuple(Encoders.scalaLong, Encoders.scalaInt, Encoders.scalaInt, Encoders.scalaInt)

  /** Counts of a prediction against a gold set; a repeated span counts once. */
  def score(predicted: Iterable[Span], gold: Iterable[Span]): EvalCounts = {
    val p = predicted.toSet
    val g = gold.toSet
    val tp = p.count(g.contains).toLong
    EvalCounts(tp, p.size - tp, g.size - tp)
  }

  /** Gold mention spans of one tweet. */
  def goldOf(t: Tweet): Seq[Span] = t.gold.map(g => (t.tweetId, t.sentId, g.start, g.len))

  /** Gold mention spans of the tweets, collected in one narrow job. */
  def goldSpans(tweets: RDD[Tweet]): Set[Span] = tweets.flatMap(goldOf).collect().toSet

  /** The spans of a DataFrame with the [[SpanCols]] columns. */
  def spansOf(df: DataFrame): Seq[Span] =
    df.select(SpanCols.map(col): _*).collect().toSeq
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3)))

  /** Spans as a local DataFrame over [[SpanCols]]. */
  def spanFrame(spark: SparkSession, spans: Seq[Span]): DataFrame =
    spark.createDataset(spans)(SpanEncoder).toDF(SpanCols: _*)

  def evaluate(predicted: DataFrame, tweets: Dataset[Tweet]): EvalCounts =
    score(spansOf(predicted), goldSpans(tweets.rdd))

  /** Detections → span DataFrame, one row per detection. */
  def detectionSpans(dets: Dataset[Detection]): DataFrame = {
    val spark = dets.sparkSession
    import spark.implicits._
    dets.map(d => (d.tweetId, d.sentId, d.start, d.len)).toDF(SpanCols: _*)
  }
}
