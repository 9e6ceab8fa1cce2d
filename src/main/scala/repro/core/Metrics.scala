package repro.core

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** Span-exact EMD evaluation — WNUT's "F1 (surface)": a predicted mention
  * is a true positive iff its (tweetId, sentId, start, len) exactly matches
  * a gold mention. Counting is one tagged group-by (every distinct span with
  * a bit per input that holds it), cross-checked against the DuckDB oracle.
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
  def goldSpans(tweets: Dataset[Tweet]): DataFrame = goldRows(tweets).distinct()

  /** One row per gold mention, duplicates kept: [[evaluateAll]] counts each span once. */
  private[core] def goldRows(tweets: Dataset[Tweet]): DataFrame =
    tweets.select(col("tweetId"), col("sentId"), explode(col("gold")).as("g"))
      .select(col("tweetId"), col("sentId"), col("g.start"), col("g.len"))

  def evaluate(predicted: DataFrame, tweets: Dataset[Tweet]): EvalCounts =
    evaluateAll(Seq(predicted), goldRows(tweets)).head

  def evaluateAgainst(predicted: DataFrame, gold: DataFrame): EvalCounts =
    evaluateAll(Seq(predicted), gold).head

  /** Counts of each prediction against one gold set, in one Spark job.
    * Inputs need the [[SpanCols]] columns; a repeated span counts once.
    */
  def evaluateAll(predicted: Seq[DataFrame], gold: DataFrame): Seq[EvalCounts] = {
    val row = counts(predicted, gold).head()
    predicted.indices.map { i =>
      val tp = row.getLong(1 + 2 * i)
      EvalCounts(tp, row.getLong(2 + 2 * i) - tp, row.getLong(0) - tp)
    }
  }

  /** One row: nGold, then tp and nPred of each prediction. Input i tags its spans
    * with bit i (gold is last); the group-by ORs the tags of each distinct span.
    */
  private[core] def counts(predicted: Seq[DataFrame], gold: DataFrame): DataFrame = {
    val n = predicted.size
    require(n < 31, s"at most 30 predictions per call, got $n")
    def has(bit: Int): Column = (col("tags") bitwiseAND (1 << bit)) =!= 0
    def countIf(c: Column): Column = coalesce(sum(c.cast("long")), lit(0L))
    (predicted :+ gold).zipWithIndex
      .map { case (spans, i) => spans.select(SpanCols.map(col) :+ lit(1 << i).as("tag"): _*) }
      .reduce(_ union _)
      .groupBy(SpanCols.map(col): _*)
      .agg(bit_or(col("tag")).as("tags"))
      .agg(countIf(has(n)).as("nGold"), predicted.indices.flatMap(i =>
        Seq(countIf(has(i) && has(n)).as(s"tp$i"), countIf(has(i)).as(s"nPred$i"))): _*)
  }

  /** Detections → span DataFrame. */
  def detectionSpans(dets: Dataset[Detection]): DataFrame = {
    val spark = dets.sparkSession
    import spark.implicits._
    dets.map(d => (d.tweetId, d.sentId, d.start, d.len)).toDF(SpanCols: _*).distinct()
  }
}
