package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.data.TweetGen
import repro.emd.{Aguilar, NpChunker}

class MetricsSpec extends SparkSpec {

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
      Tweet("T", 1L, 0, Seq("a", "B", "c"), Seq(GoldSpan(1, 1, 1L)), Seq.empty),
      Tweet("T", 2L, 0, Seq("X", "Y"), Seq(GoldSpan(0, 2, 2L)), Seq.empty)))
    val pred = Seq((1L, 0, 1, 1), (2L, 0, 0, 2)).toDF("tweetId", "sentId", "start", "len")
    val e = Metrics.evaluate(pred, tweets)
    assert(e == EvalCounts(2, 0, 0))
    assert(e.f1 == 1.0)
  }

  test("span length mismatch is both a false positive and a false negative") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet("T", 1L, 0, Seq("Andy", "Beshear", "x"), Seq(GoldSpan(0, 2, 1L)), Seq.empty)))
    val pred = Seq((1L, 0, 0, 1)).toDF("tweetId", "sentId", "start", "len") // partial
    assert(Metrics.evaluate(pred, tweets) == EvalCounts(0, 1, 1))
  }

  test("duplicate predicted spans are counted once") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet("T", 1L, 0, Seq("B", "x"), Seq(GoldSpan(0, 1, 1L)), Seq.empty)))
    val pred = Seq((1L, 0, 0, 1), (1L, 0, 0, 1)).toDF("tweetId", "sentId", "start", "len")
    assert(Metrics.evaluate(pred, tweets) == EvalCounts(1, 0, 0))
  }

  test("empty predictions give all false negatives") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet("T", 1L, 0, Seq("B", "x"), Seq(GoldSpan(0, 1, 1L)), Seq.empty),
      Tweet("T", 2L, 0, Seq("C", "y"), Seq(GoldSpan(0, 1, 2L)), Seq.empty)))
    val pred = Seq.empty[(Long, Int, Int, Int)].toDF("tweetId", "sentId", "start", "len")
    assert(Metrics.evaluate(pred, tweets) == EvalCounts(0, 0, 2))
  }

  test("goldSpans explodes every gold mention once") {
    import spark.implicits._
    val tweets = spark.createDataset(Seq(
      Tweet("T", 1L, 0, Seq("A", "b", "C"), Seq(GoldSpan(0, 1, 1L), GoldSpan(2, 1, 2L)), Seq.empty)))
    val g = Metrics.goldSpans(tweets).collect().map(r => (r.getLong(0), r.getInt(2), r.getInt(3))).toSet
    assert(g == Set((1L, 0, 1), (1L, 2, 1)))
  }

  test("detectionSpans deduplicates detections") {
    import spark.implicits._
    val dets = spark.createDataset(Seq(
      Detection("T", 1L, 0, 0, 1, "A"),
      Detection("T", 1L, 0, 0, 1, "A")))
    assert(Metrics.detectionSpans(dets).count() == 1)
  }

  test("TP counting agrees with the DuckDB oracle on a real local run") {
    val spec = TweetGen.DevStream
    val tweets = TweetGen.generate(spark, spec)
    val predDf = Metrics.detectionSpans(Aguilar.detectAll(tweets, spec))
    val goldDf = Metrics.goldSpans(tweets)
    val e = Metrics.evaluateAgainst(predDf, goldDf)
    val tpDf = predDf.join(goldDf, Metrics.SpanCols, "inner")
      .agg(org.apache.spark.sql.functions.count(org.apache.spark.sql.functions.lit(1)).as("tp"))
    Oracle.assertEquivalent(
      tpDf,
      "SELECT COUNT(*) AS tp FROM pred p JOIN gold g ON p.tweetId = g.tweetId " +
        "AND p.sentId = g.sentId AND p.start = g.start AND p.len = g.len",
      "pred" -> predDf, "gold" -> goldDf)
    // And the scalar counts line up with the DataFrame sizes.
    assert(e.tp + e.fp == predDf.count())
    assert(e.tp + e.fn == goldDf.count())
  }

  test("evaluateAgainst is symmetric in its inputs' duplicates") {
    import spark.implicits._
    val gold = Seq((1L, 0, 0, 1)).toDF("tweetId", "sentId", "start", "len")
    val pred = Seq((1L, 0, 0, 1), (1L, 0, 3, 1)).toDF("tweetId", "sentId", "start", "len")
    assert(Metrics.evaluateAgainst(pred, gold) == EvalCounts(1, 1, 0))
  }

  test("evaluateAll scores two predictions in one call, each as DuckDB counts it") {
    val spec = TweetGen.DevStream
    val tweets = TweetGen.generate(spark, spec)
    val preds = Seq(Aguilar, NpChunker).map(s => Metrics.detectionSpans(s.detectAll(tweets, spec)))
    val gold = Metrics.goldSpans(tweets)
    val evals = Metrics.evaluateAll(preds, Metrics.goldRows(tweets))
    assert(evals.size == 2 && evals(0) != evals(1))
    preds.zip(evals).foreach { case (p, e) => assertOracle(e, p, gold) }
  }

  test("evaluateAll edge cases agree with DuckDB: empty inputs, spans repeated across and within inputs") {
    import spark.implicits._
    def spans(xs: (Long, Int, Int, Int)*): DataFrame = xs.toDF(Metrics.SpanCols: _*)
    val shared = (1L, 0, 0, 1)
    val none = spans()
    val gold = spans(shared, shared, (2L, 0, 1, 2))
    val a = spans(shared, shared, (1L, 0, 3, 1))
    val b = spans(shared, shared, shared)
    val cases = Seq(
      (Seq(a, b, none), gold) -> Seq(EvalCounts(1, 1, 1), EvalCounts(1, 0, 1), EvalCounts(0, 0, 2)),
      (Seq(a, b), none)       -> Seq(EvalCounts(0, 2, 0), EvalCounts(0, 1, 0)),
      (Seq(none), none)       -> Seq(EvalCounts(0, 0, 0)))
    cases.foreach { case ((preds, g), expected) =>
      val got = Metrics.evaluateAll(preds, g)
      assert(got == expected)
      preds.zip(got).foreach { case (p, e) => assertOracle(e, p, g) }
    }
  }

  test("the evaluation query is one group-by and a total, with no join") {
    val spec = TweetGen.DevStream
    val tweets = TweetGen.generate(spark, spec)
    val dets = Aguilar.detectAll(tweets, spec).toDF()
    val plan = Metrics.counts(Seq(dets, dets), Metrics.goldRows(tweets)).queryExecution.optimizedPlan
    assert(plan.collect { case j: Join => j }.isEmpty, plan)
    assert(plan.collect { case a: Aggregate => a }.size == 2, plan)
  }
}
