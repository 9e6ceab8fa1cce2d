package repro.data

import org.apache.spark.rdd.RDD
import repro.core.{Detection, Tweet}
import repro.exp.Experiments
import repro.{Oracle, SparkSpec}

class TweetGenSpec extends SparkSpec {

  private lazy val devLocal: Seq[Tweet] = TweetGen.generateLocal(TweetGen.DevStream)

  test("generate produces exactly nTweets rows") {
    assert(TweetGen.generate(spark, TweetGen.DevStream).count() == TweetGen.DevStream.nTweets)
  }

  test("distributed generation equals local reference generation") {
    val dist = TweetGen.generate(spark, TweetGen.DevStream).collect().sortBy(_.tweetId)
    val local = devLocal.sortBy(_.tweetId)
    assert(dist.length == local.length)
    dist.zip(local).foreach { case (a, b) =>
      assert(a == b, s"tweet ${a.tweetId} differs")
    }
  }

  test("tweets holds the ids spark.range holds in each partition, and generate equals it") {
    import spark.implicits._
    def parts[T](rdd: RDD[T]): Seq[Seq[T]] = rdd.glom().collect().map(_.toSeq).toSeq
    // DevStream, and 841 = 29², which no core count below 29 divides.
    Seq(TweetGen.DevStream, TweetGen.DevStream.copy(nTweets = 841)).foreach { spec =>
      val tweets = TweetGen.tweets(spark.sparkContext, spec)
      assert(parts(tweets.map(_.tweetId)) == parts(spark.range(0, spec.nTweets.toLong).as[Long].rdd), spec.nTweets)
      assert(parts(TweetGen.generate(spark, spec).rdd) == parts(tweets), spec.nTweets)
      assert(TweetGen.generate(spark, spec).collect().toSeq == TweetGen.generateLocal(spec), spec.nTweets)
    }
    // Id sub-ranges, as runBatched's micro-batches read them.
    Seq((150L, 300L), (300L, 600L), (7L, 19L), (200L, 201L)).foreach { case (from, until) =>
      val ids = TweetGen.tweets(spark.sparkContext, TweetGen.DevStream, from, until).map(_.tweetId)
      assert(parts(ids) == parts(spark.range(from, until).as[Long].rdd), (from, until))
    }
  }

  test("generation is deterministic across calls") {
    val a = TweetGen.generateLocal(TweetGen.DevStream)
    val b = TweetGen.generateLocal(TweetGen.DevStream)
    assert(a == b)
  }

  test("gold spans lie within token bounds") {
    devLocal.foreach { t =>
      t.gold.foreach { g =>
        assert(g.start >= 0 && g.len >= 1 && g.start + g.len <= t.tokens.length,
          s"tweet ${t.tweetId} span $g tokens=${t.tokens}")
      }
    }
  }

  test("lure spans lie within token bounds") {
    devLocal.foreach { t =>
      t.lures.foreach { l =>
        assert(l.start >= 0 && l.len >= 1 && l.start + l.len <= t.tokens.length)
      }
    }
  }

  test("gold and lure spans never overlap") {
    devLocal.foreach { t =>
      val spans = t.gold.map(g => (g.start, g.len)) ++ t.lures.map(l => (l.start, l.len))
      val covered = spans.flatMap { case (s, l) => s until s + l }
      assert(covered.distinct.size == covered.size, s"overlap in tweet ${t.tweetId}")
    }
  }

  test("gold span surface matches the entity's canonical key case-insensitively") {
    val spec = TweetGen.DevStream
    devLocal.foreach { t =>
      t.gold.foreach { g =>
        val surface = Detection.keyOf(t.surface(g.start, g.len))
        assert(surface == spec.entityKey(g.entityId),
          s"tweet ${t.tweetId}: '$surface' != '${spec.entityKey(g.entityId)}'")
      }
    }
  }

  test("lure span surface matches the lure's canonical key case-insensitively") {
    val spec = TweetGen.DevStream
    devLocal.foreach { t =>
      t.lures.foreach { l =>
        assert(Detection.keyOf(t.surface(l.start, l.len)) == Vocab.keyOf(Vocab.lureTokens(spec.seed, l.lureId)))
      }
    }
  }

  test("gold span length equals the canonical token count") {
    val spec = TweetGen.DevStream
    devLocal.foreach { t =>
      t.gold.foreach(g => assert(g.len == Vocab.entityTokens(spec.seed, g.entityId).length))
    }
  }

  test("mention count per tweet stays within the distribution support") {
    assert(devLocal.forall(t => t.gold.size <= 3 && t.lures.size <= 2))
  }

  test("average mentions per tweet is near the configured distribution mean") {
    val dist = TweetGen.DevStream.mentionDist
    val expected = dist.zipWithIndex.map { case (p, k) => p * k }.sum
    val got = devLocal.map(_.gold.size).sum.toDouble / devLocal.size
    assert(math.abs(got - expected) < 0.15, s"got=$got expected=$expected")
  }

  test("capitalization variants all occur in a streaming dataset") {
    val variants = devLocal.flatMap { t =>
      t.gold.map { g =>
        val mention = t.tokens.slice(g.start, g.start + g.len)
        if (mention.forall(w => w.exists(_.isLetter) && w.forall(c => !c.isLetter || c.isUpper))) "caps"
        else if (mention.forall(_.head.isUpper)) "proper"
        else if (mention.forall(_.head.isLower)) "lower"
        else "mixed"
      }
    }
    val counts = variants.groupBy(identity).view.mapValues(_.size).toMap
    assert(counts.getOrElse("proper", 0) > counts.getOrElse("lower", 0))
    assert(counts.getOrElse("lower", 0) > 0)
    assert(counts.getOrElse("caps", 0) > 0)
  }

  test("whole-tweet styles occur at the configured low rates") {
    val big = TweetGen.generateLocal(TweetGen.D1)
    val allCaps = big.count(t => t.tokens.forall(w => !w.exists(_.isLetter) || w.forall(c => !c.isLetter || c.isUpper)))
    val frac = allCaps.toDouble / big.size
    assert(frac > 0.005 && frac < 0.08, s"ALLCAPS tweet fraction=$frac")
  }

  test("streaming dataset repeats entities far more than a non-streaming one") {
    def mentionsPerEntity(spec: TweetGen.Spec): Double = {
      val tweets = TweetGen.generateLocal(spec)
      val ids = tweets.flatMap(_.gold.map(_.entityId))
      ids.size.toDouble / ids.distinct.size
    }
    val d1 = mentionsPerEntity(TweetGen.D1)
    val wnut = mentionsPerEntity(TweetGen.WNUT17)
    assert(d1 > 2.0, s"D1 mentions/entity=$d1")
    assert(wnut < 1.8, s"WNUT17 mentions/entity=$wnut")
    assert(d1 > wnut * 1.5)
  }

  test("Zipf head entity dominates in a streaming dataset") {
    val ids = TweetGen.generateLocal(TweetGen.D1).flatMap(_.gold.map(_.entityId))
    val counts = ids.groupBy(identity).view.mapValues(_.size).toMap
    val top = counts.values.max
    assert(top >= 10, s"head entity count=$top")
  }

  test("Table I mention and entity counts agree with DuckDB oracle") {
    import spark.implicits._
    val row = Experiments.table1Stats(spark, TweetGen.DevStream)
    val gold = devLocal.flatMap(t => t.gold.map(g => (t.tweetId, g.entityId))).toDF("tweetId", "entityId")
    Oracle.assertEquivalent(
      Seq((row.nMentions, row.nEntities)).toDF("mentions", "entities"),
      "SELECT COUNT(*) AS mentions, COUNT(DISTINCT entityId) AS entities FROM gold",
      "gold" -> gold)
  }

  test("all eval specs generate non-degenerate data (smoke)") {
    TweetGen.evalSpecs.foreach { spec =>
      val sample = (0L until 50L).map(id => TweetGen.makeTweet(spec, id))
      assert(sample.exists(_.gold.nonEmpty), s"${spec.name} has no mentions in first 50 tweets")
      assert(sample.forall(_.tokens.nonEmpty))
    }
  }
}
