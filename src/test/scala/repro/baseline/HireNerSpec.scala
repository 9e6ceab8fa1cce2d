package repro.baseline

import org.apache.spark.BroadcastBlocks
import org.scalatest.concurrent.Eventually.eventually
import org.scalatest.concurrent.PatienceConfiguration.Timeout
import org.scalatest.time.{Seconds, Span}
import repro.{SparkSpec, TestFixtures}
import repro.core.{EvalCounts, Globalizer, Metrics}
import repro.data.TweetGen
import repro.emd.{Aguilar, TokenEmbedder}
import repro.nn.{MlpClassifier, Net}

import java.util.Locale
import scala.collection.mutable

class HireNerSpec extends SparkSpec {

  private val spec = TweetGen.DevStream
  private lazy val decoder: MlpClassifier =
    HireNer.train(spark, Aguilar, sampleN = 8000, spec = TweetGen.D5Mini)

  private lazy val gold = Metrics.goldSpans(TweetGen.tweets(spark.sparkContext, spec))

  private def tokenType(t: String): String = t.toLowerCase(Locale.ROOT)

  test("token gold labels match the gold spans") {
    val tweets = TweetGen.generateLocal(spec)
    val labelledPos = tweets.flatMap(t =>
      t.tokens.indices.filter(HireNer.isEntity(t, _)).map(p => (t.tweetId, p))).toSet
    val expected = tweets.flatMap(t =>
      t.gold.flatMap(g => (g.start until g.start + g.len).map(p => (t.tweetId, p)))).toSet
    assert(labelledPos == expected)
  }

  test("globalMemory pools one vector per lower-cased token type") {
    val mem = HireNer.globalMemory(TweetGen.tweets(spark.sparkContext, spec), Aguilar, spec)
    val types = TweetGen.generateLocal(spec).flatMap(_.tokens.map(tokenType)).toSet
    assert(mem.keySet == types)
    assert(mem.values.forall(_.length == Aguilar.dim))
  }

  test("globalMemory mean equals the hand-computed mean for one token type") {
    val mem = HireNer.globalMemory(TweetGen.tweets(spark.sparkContext, spec), Aguilar, spec)
    val tweets = TweetGen.generateLocal(spec)
    // The most frequent type: its mean counts every one of many occurrences.
    val someType = tweets.flatMap(_.tokens.map(tokenType)).groupBy(identity).maxBy(_._2.size)._1
    val locals = tweets.flatMap(t => t.tokens.indices.collect {
      case p if tokenType(t.tokens(p)) == someType =>
        TokenEmbedder.tokenEmbedding(Aguilar.dim, Aguilar.params.salt, spec.seed, t, p)
    })
    assert(locals.size > 1)
    val expected = Net.mean(locals)
    mem(someType).zip(expected).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("HIRE-NER is pinned: DevStream counts and decoder bits (D5Mini decoder)") {
    val x = Array.tabulate(2 * Aguilar.dim)(i => 0.01 * i)
    assert(java.lang.Double.doubleToLongBits(decoder.predictProba(x)) == 4607046348548571344L)
    val eval = Metrics.score(HireNer.run(spark, spec, Aguilar, decoder), gold)
    assert(eval == EvalCounts(397, 546, 190))
  }

  test("HIRE-NER decodes each tweet where it stands: one-stage jobs") {
    val dec = decoder
    val (_, stages) = stagesPerJob(HireNer.run(spark, spec, Aguilar, dec))
    // The token memory's pooling, then the decode; one stage each means no shuffle.
    assert(stages == Seq(1, 1), stages)
  }

  test("HIRE-NER run and train leave no broadcast and no persisted RDD behind") {
    val sc = spark.sparkContext
    val dec = decoder
    val persisted = sc.getPersistentRDDs.keySet
    val broadcasts = BroadcastBlocks.held(sc)
    HireNer.run(spark, spec, Aguilar, dec)
    HireNer.train(spark, Aguilar, sampleN = 500, spec = TweetGen.D5Mini)
    assert(sc.getPersistentRDDs.keySet == persisted)
    // A destroyed broadcast leaves the driver's block manager asynchronously.
    eventually(Timeout(Span(10, Seconds))) {
      val left = BroadcastBlocks.held(sc)
      assert(left.subsetOf(broadcasts), left -- broadcasts)
    }
  }

  test("HIRE-NER produces valid non-overlapping spans") {
    val rows = HireNer.run(spark, spec, Aguilar, decoder).map { case (tid, _, start, len) => (tid, start, len) }
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
    val eval = Metrics.score(HireNer.run(spark, spec, Aguilar, decoder), gold)
    assert(eval.f1 > 0.3, s"HIRE-NER f1=${eval.f1}")
  }

  test("EMD Globalizer beats HIRE-NER on the dev stream (Table IV shape)") {
    val hire = Metrics.score(HireNer.run(spark, spec, Aguilar, decoder), gold)
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
