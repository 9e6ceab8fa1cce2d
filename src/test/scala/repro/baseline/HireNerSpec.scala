package repro.baseline

import repro.{SparkSpec, TestFixtures}
import repro.core.{Globalizer, Metrics}
import repro.data.TweetGen
import repro.emd.Aguilar
import repro.nn.MlpClassifier

import scala.collection.mutable

class HireNerSpec extends SparkSpec {

  private val spec = TweetGen.DevStream
  private lazy val decoder: MlpClassifier =
    HireNer.train(spark, Aguilar, sampleN = 8000, spec = TweetGen.D5Mini)

  test("tokenOccurrences covers every token exactly once") {
    import spark.implicits._
    val tweets = TweetGen.generate(spark, spec)
    val occ = HireNer.tokenOccurrences(tweets, Aguilar.dim, Aguilar.params.salt, spec.seed)
    val totalTokens = TweetGen.generateLocal(spec).map(_.tokens.size).sum
    assert(occ.count() == totalTokens)
    val perTweet = occ.groupByKey(o => (o.tweetId, o.pos)).count().collect()
    assert(perTweet.forall(_._2 == 1))
  }

  test("token gold labels match the gold spans") {
    import spark.implicits._
    val tweets = TweetGen.generate(spark, spec)
    val occ = HireNer.tokenOccurrences(tweets, Aguilar.dim, Aguilar.params.salt, spec.seed)
    val labelledPos = occ.filter(_.isEntity).map(o => (o.tweetId, o.pos)).collect().toSet
    val expected = TweetGen.generateLocal(spec).flatMap(t =>
      t.gold.flatMap(g => (g.start until g.start + g.len).map(p => (t.tweetId, p)))).toSet
    assert(labelledPos == expected)
  }

  test("globalMemory pools one vector per lower-cased token type") {
    import spark.implicits._
    val tweets = TweetGen.generate(spark, spec)
    val occ = HireNer.tokenOccurrences(tweets, Aguilar.dim, Aguilar.params.salt, spec.seed)
    val mem = HireNer.globalMemory(occ)
    val types = occ.map(_.tokenKey).distinct().count()
    assert(mem.size == types)
    assert(mem.values.forall(_.length == Aguilar.dim))
  }

  test("globalMemory mean equals the hand-computed mean for one token type") {
    val tweets = TweetGen.generate(spark, spec)
    val occ = HireNer.tokenOccurrences(tweets, Aguilar.dim, Aguilar.params.salt, spec.seed)
    val mem = HireNer.globalMemory(occ)
    val someType = mem.keys.head
    val locals = occ.filter(_.tokenKey == someType).collect().map(_.local)
    val expected = repro.nn.Net.mean(locals.toSeq)
    mem(someType).zip(expected).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("HIRE-NER produces valid non-overlapping spans") {
    val spansDf = HireNer.run(spark, spec, Aguilar, decoder)
    val rows = spansDf.collect().map(r => (r.getLong(0), r.getInt(2), r.getInt(3)))
    assert(rows.nonEmpty)
    val byTweet = mutable.Map.empty[Long, mutable.Set[Int]].withDefault(_ => mutable.Set.empty)
    rows.foreach { case (tid, start, len) =>
      assert(len >= 1)
      val s = byTweet.getOrElseUpdate(tid, mutable.Set.empty)
      (start until start + len).foreach { p =>
        assert(!s.contains(p), s"overlapping span in tweet $tid")
        s += p
      }
    }
  }

  test("HIRE-NER achieves non-trivial EMD quality") {
    val tweets = TweetGen.generate(spark, spec)
    val eval = Metrics.evaluate(HireNer.run(spark, spec, Aguilar, decoder), tweets)
    assert(eval.f1 > 0.3, s"HIRE-NER f1=${eval.f1}")
  }

  test("EMD Globalizer beats HIRE-NER on the dev stream (Table IV shape)") {
    val tweets = TweetGen.generate(spark, spec)
    val hire = Metrics.evaluate(HireNer.run(spark, spec, Aguilar, decoder), tweets)
    val trained = TestFixtures.trained(spark, Aguilar)
    val glob = Globalizer.run(spark, spec, Aguilar, trained.classifier,
      trained.phraseEmbedder, chargeEmbeddingCost = false).globalEval
    assert(glob.f1 > hire.f1, s"globalizer=${glob.f1} hire=${hire.f1}")
    assert(glob.precision > hire.precision,
      s"globalizer P=${glob.precision} hire P=${hire.precision} — paper: especially higher precision")
  }

  test("decoder training is deterministic") {
    val a = HireNer.train(spark, Aguilar, sampleN = 2000, spec = TweetGen.D5Mini)
    val b = HireNer.train(spark, Aguilar, sampleN = 2000, spec = TweetGen.D5Mini)
    val x = Array.tabulate(2 * Aguilar.dim)(i => 0.01 * i)
    assert(a.predictProba(x) == b.predictProba(x))
  }
}
