package repro.core

import repro.{Oracle, SparkSpec}

class GlobalPoolingSpec extends SparkSpec {

  import GlobalPooling.Pool

  private def m(key: String, emb: Array[Double], tweetId: Long, start: Int = 0): MentionEmb =
    MentionEmb(Detection(tweetId, 0, start, 1, key), emb)

  /** Pools of `(key, emb)` rows, folded as a partition folds its mentions. */
  private def fold(rows: (String, Array[Double])*): collection.Map[String, Pool] =
    GlobalPooling.partitionPools(rows.iterator)(_._1, _._2)

  test("empty pool add clones the embedding") {
    val e = Array(1.0, 2.0)
    val p = fold("k" -> e)("k")
    val q = Pool.of(e)
    e(0) = 99.0
    assert(p.sum.toSeq == Seq(1.0, 2.0), "pool must not alias the input array")
    assert(q.sum.toSeq == Seq(1.0, 2.0), "Pool.of must not alias the input array")
    assert(p.count == 1 && q.count == 1)
  }

  test("add accumulates sums and counts") {
    val a = Array(1.0, 2.0)
    val p = fold("k" -> a, "k" -> Array(3.0, 4.0))("k")
    assert(p.count == 2)
    assert(p.sum.toSeq == Seq(4.0, 6.0))
    assert(p.mean.toSeq == Seq(2.0, 3.0))
    assert(a.toSeq == Seq(1.0, 2.0), "adding must not change an input array")
  }

  test("mean of empty pool throws") {
    intercept[IllegalArgumentException](Pool(0L, Array.empty[Double]).mean)
  }

  test("add rejects dimension mismatch") {
    intercept[IllegalArgumentException](fold("k" -> Array(1.0), "k" -> Array(1.0, 2.0)))
    intercept[IllegalArgumentException](Pool.of(Array(1.0)).merge(Pool.of(Array(1.0, 2.0))))
  }

  test("merge combines pools and is neutral with empty") {
    val a = Pool.of(Array(1.0, 1.0))
    val b = Pool.of(Array(3.0, 5.0)).merge(Pool.of(Array(2.0, 0.0)))
    val ab = a.merge(b)
    assert(ab.count == 3)
    assert(ab.sum.toSeq == Seq(6.0, 6.0))
    assert(a.sum.toSeq == Seq(1.0, 1.0), "merge must not change its receiver")
    val empty = Pool(0L, Array(0.0, 0.0))
    Seq(empty.merge(a), a.merge(empty)).foreach(p => assert(p.count == 1 && p.sum.toSeq == Seq(1.0, 1.0)))
    // mergeInto merges into a present key and takes an absent key's pool as it is.
    val into = scala.collection.mutable.HashMap("a" -> a)
    GlobalPooling.mergeInto(into, Seq("a" -> b, "c" -> b))
    assert(into("a").count == 3 && into("a").sum.toSeq == Seq(6.0, 6.0))
    assert(into("c") eq b)
  }

  test("merge is order-independent (incremental == batch)") {
    val embs = (0 until 10).map(i => Pool.of(Array(i.toDouble, 2.0 * i)))
    val batch = embs.reduce(_ merge _)
    val part1 = embs.take(4).reduce(_ merge _)
    val part2 = embs.drop(4).reduce(_ merge _)
    val merged = part1.merge(part2)
    assert(merged.count == batch.count)
    assert(merged.sum.toSeq == batch.sum.toSeq)
  }

  test("pool groups mentions by key with mean embeddings") {
    import spark.implicits._
    val ms = Seq(
      m("a", Array(1.0, 0.0), 1L), m("a", Array(3.0, 2.0), 2L),
      m("b", Array(5.0, 5.0), 3L))
    val recs = GlobalPooling.pool(spark.createDataset(ms)).collect().map(r => r.key -> r).toMap
    assert(recs("a").mentionCount == 2)
    assert(recs("a").pooled.toSeq == Seq(2.0, 1.0))
    assert(recs("b").mentionCount == 1)
    assert(recs("b").pooled.toSeq == Seq(5.0, 5.0))
  }

  test("pool handles a single key across many partitions") {
    import spark.implicits._
    val ms = (0 until 500).map(i => m("k", Array(1.0, i.toDouble), i.toLong))
    val rec = GlobalPooling.pool(spark.createDataset(ms).repartition(32)).collect().head
    assert(rec.mentionCount == 500)
    assert(math.abs(rec.pooled(0) - 1.0) < 1e-9)
    assert(math.abs(rec.pooled(1) - 249.5) < 1e-9)
  }

  test("pooled counts and per-dimension means agree with the DuckDB oracle") {
    import spark.implicits._
    val ms = (0 until 200).map { i =>
      m(s"key${i % 7}", Array(i.toDouble, (i * i % 13).toDouble), i.toLong)
    }
    val mentionsDf = ms.map(x => (x.mention.key, x.emb(0), x.emb(1))).toDF("key", "e0", "e1")
    val pooled = GlobalPooling.pool(spark.createDataset(ms))
      .map(r => (r.key, r.mentionCount, r.pooled(0), r.pooled(1)))
      .toDF("key", "mentions", "mean0", "mean1")
    Oracle.assertEquivalent(
      pooled,
      "SELECT key, COUNT(*) AS mentions, AVG(CAST(e0 AS DOUBLE)) AS mean0, " +
        "AVG(CAST(e1 AS DOUBLE)) AS mean1 FROM m GROUP BY key",
      "m" -> mentionsDf)
  }

  test("syntactic pools are scenario distributions summing to 1") {
    import spark.implicits._
    val occ1 = SyntacticEmbedding.embed(Seq("the", "Vebaba"), 1, 1)
    val occ2 = SyntacticEmbedding.embed(Seq("the", "vebaba"), 1, 1)
    val recs = GlobalPooling.pool(spark.createDataset(Seq(
      m("vebaba", occ1, 1L), m("vebaba", occ2, 2L)))).collect()
    assert(math.abs(recs.head.pooled.sum - 1.0) < 1e-9)
    assert(recs.head.pooled.count(_ > 0) == 2)
  }
}
