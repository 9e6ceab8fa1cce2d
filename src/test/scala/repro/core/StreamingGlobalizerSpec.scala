package repro.core

import org.apache.spark.BroadcastBlocks
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.scalatest.concurrent.Eventually.eventually
import org.scalatest.concurrent.PatienceConfiguration.Timeout
import org.scalatest.time.{Seconds, Span}
import repro.{SparkSpec, TestFixtures}
import repro.data.TweetGen
import repro.emd.{Aguilar, NpChunker}

import scala.collection.mutable

class StreamingGlobalizerSpec extends SparkSpec {

  private val spec = TweetGen.DevStream
  private lazy val trained = TestFixtures.trained(spark, Aguilar)

  private def spans(df: org.apache.spark.sql.DataFrame): Set[Metrics.Span] = Metrics.spansOf(df).toSet

  test("a single micro-batch equals the batch pipeline output") {
    val batchRun = Globalizer.run(spark, spec, Aguilar, trained.classifier,
      trained.phraseEmbedder, chargeEmbeddingCost = false)
    val (streamOut, state) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, trained.classifier, trained.phraseEmbedder, nBatches = 1)
    assert(spans(streamOut) == batchRun.spans.toSet)

    val batchScored = batchRun.scored.map { case (r, s) => r.key -> ((r, s)) }.toMap
    val streamScored = state.records.map(r => r.key -> ((r, trained.classifier.score(r)))).toMap
    assert(streamScored.keySet == batchScored.keySet)
    streamScored.foreach { case (k, (r, s)) =>
      val (b, bs) = batchScored(k)
      assert(r.mentionCount == b.mentionCount, k)
      assert(EntityClassifier.bandOf(s) == EntityClassifier.bandOf(bs), k)
      assert(r.pooled.length == b.pooled.length, k)
      r.pooled.zip(b.pooled).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9, k) }
    }
  }

  test("multi-batch state accumulates every batch's candidates") {
    val (_, state) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, trained.classifier, trained.phraseEmbedder, nBatches = 4)
    val allKeys = TweetGen.generateLocal(spec).flatMap(Aguilar.detector(spec)).map(_.key).toSet
    assert(state.keys.toSet == allKeys)
  }

  test("final-state pools equal batch pools for token-disjoint candidates known from batch 1") {
    // Pooling is incremental, BUT the longest-match scan makes pools
    // path-dependent for candidates that overlap or prefix other candidates
    // discovered later (a longer candidate steals the span once registered).
    // For candidates sharing no token with any other candidate, streaming
    // and batch pools must be identical.
    val (_, state2) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, trained.classifier, trained.phraseEmbedder, nBatches = 2)
    val batchRun = Globalizer.run(spark, spec, Aguilar, trained.classifier,
      trained.phraseEmbedder, chargeEmbeddingCost = false)
    val batchPools = batchRun.scored.map { case (r, _) => r.key -> r }.toMap

    // Keys discovered in batch 1 (local detections of the first half):
    val firstHalf = TweetGen.generateLocal(spec).take((spec.nTweets + 1) / 2)
    val batch1Keys = firstHalf.flatMap(Aguilar.detector(spec)).map(_.key).toSet

    val allKeys = state2.keys.toSet
    def tokens(k: String): Set[String] = k.split(" ").toSet
    val disjoint = batch1Keys.filter { k =>
      val t = tokens(k)
      (allKeys - k).forall(other => tokens(other).intersect(t).isEmpty)
    }
    assert(disjoint.nonEmpty, "expected some token-disjoint batch-1 candidates")
    disjoint.foreach { k =>
      val s = state2.pools(k)
      val b = batchPools(k)
      assert(s.count == b.mentionCount, s"count mismatch for $k: ${s.count} vs ${b.mentionCount}")
      s.mean.zip(b.pooled).foreach { case (a, e) => assert(math.abs(a - e) < 1e-9) }
    }
  }

  test("multi-batch recall is close to (and never far above) batch recall") {
    val batchRun = Globalizer.run(spark, spec, Aguilar, trained.classifier,
      trained.phraseEmbedder, chargeEmbeddingCost = false)
    val (streamOut, _) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, trained.classifier, trained.phraseEmbedder, nBatches = 4)
    val streamEval = Metrics.score(spans(streamOut), Metrics.goldSpans(TweetGen.tweets(spark.sparkContext, spec)))
    val batchEval = batchRun.globalEval
    // Early batches cannot know later candidates, so streaming recall is
    // bounded by batch recall (modulo γ/α band flips from partial pools).
    assert(streamEval.recall <= batchEval.recall + 0.05,
      s"stream=${streamEval.recall} batch=${batchEval.recall}")
    assert(streamEval.recall > batchEval.recall * 0.7,
      "streaming should still recover most mentions")
    assert(streamEval.f1 > batchRun.localEval.f1, "streaming global must still beat local EMD")
  }

  test("runBatched leaves nothing cached") {
    val sc = spark.sparkContext
    val clf = trained.classifier
    val before = sc.getPersistentRDDs.size
    val (out, _) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, clf, trained.phraseEmbedder, nBatches = 2)
    val outSpans = Metrics.spansOf(out)
    assert(outSpans.size == outSpans.distinct.size)
    assert(sc.getPersistentRDDs.size == before)
  }

  private def batchOf(lo: Long, hi: Long) = TweetGen.tweets(spark.sparkContext, spec, lo, hi)

  test("a warm processBatch runs 2 Spark jobs of one stage each and persists nothing") {
    val sc = spark.sparkContext
    val state = new StreamingGlobalizer.State
    def process(lo: Long, hi: Long): Unit = StreamingGlobalizer.processBatch(
      batchOf(lo, hi), spec, Aguilar, trained.classifier, trained.phraseEmbedder, state)
    process(0, 300)

    val persisted = sc.getPersistentRDDs.keySet
    val (_, stages) = stagesPerJob(process(300, 600))
    // Local detection, then mining with pooling; the output is held on the
    // driver. One stage per job means no shuffle.
    assert(stages.size == 2, stages)
    assert(stages.forall(_ == 1), stages)
    assert(sc.getPersistentRDDs.keySet == persisted)
  }

  test("warm micro-batches leave no RDD persisted and no broadcast behind") {
    val sc = spark.sparkContext
    val state = new StreamingGlobalizer.State
    def process(b: Int): Unit = StreamingGlobalizer.processBatch(
      batchOf(b * 30L, b * 30L + 30), spec, Aguilar, trained.classifier, trained.phraseEmbedder, state)
    process(0)
    val persisted = sc.getPersistentRDDs.keySet
    val broadcasts = BroadcastBlocks.held(sc)
    (1 to 20).foreach(process)
    assert(sc.getPersistentRDDs.keySet == persisted)
    // A destroyed broadcast leaves the driver's block manager asynchronously;
    // an earlier one may meanwhile be released by the ContextCleaner.
    eventually(Timeout(Span(10, Seconds))) {
      val left = BroadcastBlocks.held(sc)
      assert(left.subsetOf(broadcasts), left -- broadcasts)
    }
  }

  test("cached scores equal a full re-score, and another classifier re-scores everything") {
    val state = new StreamingGlobalizer.State
    def process(clf: EntityClassifier, lo: Long): Unit = StreamingGlobalizer.processBatch(
      batchOf(lo, lo + 150), spec, Aguilar, clf, trained.phraseEmbedder, state)
    def rescored(clf: EntityClassifier) = state.records.map(r => (r.key, clf.score(r)))
    Seq(0L, 150L, 300L).foreach(process(trained.classifier, _))
    assert(state.scored.map { case (r, s) => (r.key, s) } == rescored(trained.classifier))
    val other = new EntityClassifier(trained.classifier.inputDim, seed = 7L)
    process(other, 450L)
    assert(state.scored.map { case (r, s) => (r.key, s) } == rescored(other))
  }

  test("candidate records are sorted by key and independent of the input partitioning") {
    val sp = TweetGen.D5Mini // local copy: the lambda must not capture the test class
    Seq(NpChunker -> 0.0, Aguilar -> 1e-12).foreach { case (system, relTol) =>
      val pe = TestFixtures.trained(spark, system).phraseEmbedder
      val byK = Seq(1, 3, 8).map { k =>
        val tweets = spark.sparkContext.range(0, sp.nTweets, 1, k).map(TweetGen.makeTweet(sp, _))
        val dets = Globalizer.localPhase(tweets, system, sp, chargeEmbeddingCost = false).dets
        val state = new StreamingGlobalizer.State
        state.absorb(tweets, dets, sp, system, pe)
        state.records
      }
      byK.foreach { recs =>
        val keys = recs.map(_.key)
        assert(keys == keys.sorted, system.name)
      }
      val first = byK.head
      byK.tail.foreach { recs =>
        assert(recs.map(r => (r.key, r.mentionCount)) == first.map(r => (r.key, r.mentionCount)), system.name)
        // Relative to the pool's largest coordinate: a coordinate near 0 is
        // a cancellation, and its own relative error says nothing.
        recs.zip(first).foreach { case (r, f) =>
          val scale = f.pooled.map(math.abs).max
          r.pooled.zip(f.pooled).foreach { case (x, y) =>
            assert(math.abs(x - y) <= relTol * scale, s"${system.name} ${r.key}")
          }
        }
      }
    }
  }

  test("processBatch over an empty batch leaves state usable") {
    val state = new StreamingGlobalizer.State
    val out = StreamingGlobalizer.processBatch(
      spark.sparkContext.emptyRDD[Tweet], spec, Aguilar, trained.classifier, trained.phraseEmbedder, state)
    assert(out.spans.isEmpty)
    assert(state.keys.isEmpty)
  }

  test("Structured Streaming via MemoryStream produces the same spans as the driver loop") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val stream = MemoryStream[Tweet]
    val state = new StreamingGlobalizer.State
    val collected = mutable.ArrayBuffer.empty[Set[Metrics.Span]]
    val query = StreamingGlobalizer.runStream(
      stream.toDS(), spec, Aguilar, trained.classifier, trained.phraseEmbedder, state,
      (_, df) => collected.synchronized { collected += spans(df) })

    val all = TweetGen.generateLocal(spec)
    val half = all.size / 2
    stream.addData(all.take(half))
    query.processAllAvailable()
    stream.addData(all.drop(half))
    query.processAllAvailable()
    query.stop()

    val (loopOut, loopState) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, trained.classifier, trained.phraseEmbedder, nBatches = 2)
    assert(collected.size == 2)
    assert(collected.reduce(_ ++ _) == spans(loopOut))
    assert(state.keys == loopState.keys)
  }
}
