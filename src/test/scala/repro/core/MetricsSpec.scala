package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.{col, explode}
import repro.{Oracle, SparkSpec}
import repro.data.TweetGen
import repro.emd.{Aguilar, NpChunker}

class MetricsSpec extends SparkSpec {

  /** One row per gold mention of the tweets, repeats kept: the oracle's own gold. */
  private def goldRows(tweets: Dataset[Tweet]): DataFrame =
    tweets.select(col("tweetId"), col("sentId"), explode(col("gold")).as("g"))
      .select(col("tweetId"), col("sentId"), col("g.start"), col("g.len"))

  /** Asserts `e` equals DuckDB's count of `pred`'s distinct spans against `gold`'s. */
  private def assertOracle(e: EvalCounts, pred: DataFrame, gold: DataFrame): Unit = {
    import spark.implicits._
    val cols = Metrics.SpanCols.mkString(", ")
    Oracle.assertEquivalent(
      Seq((e.tp, e.fp, e.fn)).toDF("tp", "fp", "fn"),
      s"""WITH p AS (SELECT DISTINCT $cols FROM pred), g AS (SELECT DISTINCT $cols FROM gold),
         |     t AS (SELECT COUNT(*) AS n FROM p JOIN g USING ($cols))
         |SELECT n AS tp, (SELECT COUNT(*) FROM p) - n AS fp, (SELECT COUNT(*) FROM g) - n AS fn
         |FROM t""".stripMargin,
      "pred" -> pred.select(Metrics.SpanCols.map(col): _*),
      "gold" -> gold.select(Metrics.SpanCols.map(col): _*))
  }

  test("EvalCounts precision/recall/f1 arithmetic") {
    val e = EvalCounts(tp = 6, fp = 2, fn = 4)
    assert(math.abs(e.precision - 0.75) < 1e-12)
    assert(math.abs(e.recall - 0.6) < 1e-12)
    assert(math.abs(e.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-12)
  }

  test("EvalCounts degenerate cases yield 0 not NaN") {
    assert(EvalCounts(0, 0, 0).precision == 0.0)
    assert(EvalCounts(0, 0, 0).recall == 0.0)
    assert(EvalCounts(0, 0, 0).f1 == 0.0)
    assert(EvalCounts(0, 5, 0).f1 == 0.0)
  }

  test("perfect prediction gives F1 = 1") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet(1L, 0, Seq("a", "B", "c"), Seq(GoldSpan(1, 1, 1L)), Seq.empty),
      Tweet(2L, 0, Seq("X", "Y"), Seq(GoldSpan(0, 2, 2L)), Seq.empty)))
    val pred = Seq((1L, 0, 1, 1), (2L, 0, 0, 2)).toDF("tweetId", "sentId", "start", "len")
    val e = Metrics.evaluate(pred, tweets)
    assert(e == EvalCounts(2, 0, 0))
    assert(e.f1 == 1.0)
  }

  test("span length mismatch is both a false positive and a false negative") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet(1L, 0, Seq("Andy", "Beshear", "x"), Seq(GoldSpan(0, 2, 1L)), Seq.empty)))
    val pred = Seq((1L, 0, 0, 1)).toDF("tweetId", "sentId", "start", "len") // partial
    assert(Metrics.evaluate(pred, tweets) == EvalCounts(0, 1, 1))
  }

  test("duplicate predicted spans are counted once") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet(1L, 0, Seq("B", "x"), Seq(GoldSpan(0, 1, 1L)), Seq.empty)))
    val pred = Seq((1L, 0, 0, 1), (1L, 0, 0, 1)).toDF("tweetId", "sentId", "start", "len")
    assert(Metrics.evaluate(pred, tweets) == EvalCounts(1, 0, 0))
  }

  test("empty predictions give all false negatives") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet(1L, 0, Seq("B", "x"), Seq(GoldSpan(0, 1, 1L)), Seq.empty),
      Tweet(2L, 0, Seq("C", "y"), Seq(GoldSpan(0, 1, 2L)), Seq.empty)))
    val pred = Seq.empty[(Long, Int, Int, Int)].toDF("tweetId", "sentId", "start", "len")
    assert(Metrics.evaluate(pred, tweets) == EvalCounts(0, 0, 2))
  }

  test("goldSpans explodes every gold mention once") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet(1L, 0, Seq("A", "b", "C"), Seq(GoldSpan(0, 1, 1L), GoldSpan(2, 1, 2L)), Seq.empty)))
    assert(Metrics.goldSpans(tweets.rdd) == Set((1L, 0, 0, 1), (1L, 0, 2, 1)))
  }

  test("TP counting agrees with the DuckDB oracle on a real local run") {
    import spark.implicits._
    val spec = TweetGen.DevStream
    val tweets = TweetGen.generate(spark, spec)
    val predDf = Metrics.detectionSpans(Aguilar.detectAll(tweets, spec))
    val goldDf = goldRows(tweets)
    val e = Metrics.evaluate(predDf, tweets)
    Oracle.assertEquivalent(
      Seq(e.tp).toDF("tp"),
      "SELECT COUNT(*) AS tp FROM pred p JOIN (SELECT DISTINCT * FROM gold) g ON p.tweetId = g.tweetId " +
        "AND p.sentId = g.sentId AND p.start = g.start AND p.len = g.len",
      "pred" -> predDf, "gold" -> goldDf)
    // And the scalar counts line up with the DataFrame sizes.
    assert(e.tp + e.fp == predDf.count())
    assert(e.tp + e.fn == goldDf.distinct().count())
  }

  test("score agrees with DuckDB on two predictions against one gold set") {
    val spec = TweetGen.DevStream
    val tweets = TweetGen.generate(spark, spec)
    val preds = Seq(Aguilar, NpChunker).map(s => Metrics.detectionSpans(s.detectAll(tweets, spec)))
    val gold = Metrics.goldSpans(tweets.rdd)
    val evals = preds.map(p => Metrics.score(Metrics.spansOf(p), gold))
    assert(evals(0) != evals(1))
    preds.zip(evals).foreach { case (p, e) => assertOracle(e, p, goldRows(tweets)) }
  }

  test("score is symmetric in its inputs' duplicates") {
    val gold = Seq((1L, 0, 0, 1))
    val pred = Seq((1L, 0, 0, 1), (1L, 0, 3, 1))
    val e = Metrics.score(pred, gold)
    assert(e == EvalCounts(1, 1, 0))
    assertOracle(e, Metrics.spanFrame(spark, pred), Metrics.spanFrame(spark, gold))
  }

  test("score edge cases agree with DuckDB: empty inputs, repeated spans") {
    val shared = (1L, 0, 0, 1)
    val other = (1L, 0, 3, 1)
    val none = Seq.empty[Metrics.Span]
    val gold = Seq(shared, shared, (2L, 0, 1, 2))
    val a = Seq(shared, shared, other)
    val b = Seq(shared, shared, shared)
    val cases = Seq(
      (Seq(a, b, none), gold) -> Seq(EvalCounts(1, 1, 1), EvalCounts(1, 0, 1), EvalCounts(0, 0, 2)),
      (Seq(a, b), none)       -> Seq(EvalCounts(0, 2, 0), EvalCounts(0, 1, 0)),
      (Seq(none), none)       -> Seq(EvalCounts(0, 0, 0)))
    cases.foreach { case ((preds, g), expected) =>
      val got = preds.map(Metrics.score(_, g))
      assert(got == expected)
      preds.zip(got).foreach { case (p, e) =>
        assertOracle(e, Metrics.spanFrame(spark, p), Metrics.spanFrame(spark, g))
      }
    }
  }
}
