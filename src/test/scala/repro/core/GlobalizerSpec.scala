package repro.core

import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import org.apache.spark.sql.execution.exchange.Exchange
import repro.{SparkSpec, TestFixtures}
import repro.data.TweetGen
import repro.emd.{Aguilar, BerTweet, LocalEmd, NpChunker, SysParams, TwitterNlp}

/** NP Chunker emitting each of its detections twice. */
private object DoubledChunker extends LocalEmd {
  val params: SysParams = NpChunker.params
  override def detect(tweet: Tweet, hardness: Double, datasetSeed: Long): Seq[Detection] = {
    val d = NpChunker.detect(tweet, hardness, datasetSeed)
    d ++ d
  }
}

/** End-to-end integration tests of the batch pipeline on a small stream,
  * covering the paper's three Global EMD objectives (false-negative
  * removal, false-positive removal, partial-extraction correction) and the
  * Fig. 6 ablation ordering.
  */
class GlobalizerSpec extends SparkSpec {

  private val spec = TweetGen.DevStream

  private lazy val trainedAguilar = TestFixtures.trained(spark, Aguilar)
  private lazy val trainedChunker = TestFixtures.trained(spark, NpChunker)
  private lazy val runAguilar =
    Globalizer.run(spark, spec, Aguilar, trainedAguilar.classifier,
      trainedAguilar.phraseEmbedder, chargeEmbeddingCost = false)
  private lazy val runChunker =
    Globalizer.run(spark, spec, NpChunker, trainedChunker.classifier, None,
      chargeEmbeddingCost = false)

  test("Global EMD improves F1 over Local EMD (deep system)") {
    assert(runAguilar.globalEval.f1 > runAguilar.localEval.f1,
      s"global=${runAguilar.globalEval.f1} local=${runAguilar.localEval.f1}")
  }

  test("Global EMD improves F1 over Local EMD (non-deep system)") {
    assert(runChunker.globalEval.f1 > runChunker.localEval.f1,
      s"global=${runChunker.globalEval.f1} local=${runChunker.localEval.f1}")
  }

  test("Global EMD improves recall (false-negative removal)") {
    assert(runAguilar.globalEval.recall > runAguilar.localEval.recall)
  }

  test("Global EMD improves precision (false-positive removal)") {
    assert(runChunker.globalEval.precision > runChunker.localEval.precision)
  }

  test("entity classifier validation F1 is high (Table II shape)") {
    assert(trainedAguilar.classifierValidationF1 > 0.85,
      s"valF1=${trainedAguilar.classifierValidationF1}")
    assert(trainedChunker.classifierValidationF1 > 0.85,
      s"valF1=${trainedChunker.classifierValidationF1}")
  }

  test("classifier input dim matches the Table II embedding size label") {
    assert(trainedAguilar.embeddingSizeLabel == "100+1")
    assert(trainedAguilar.classifier.inputDim == 101)
    assert(trainedChunker.embeddingSizeLabel == "6+1")
    assert(trainedChunker.classifier.inputDim == 7)
  }

  test("seed keys are exactly the distinct local detection keys") {
    val keys = Globalizer.seedKeys(runAguilar.detections)
    val expected = runAguilar.detections.map(_.key).distinct.sorted
    assert(keys == expected)
  }

  test("every candidate record's key comes from a seed candidate's scan") {
    val seedTrie = CTrie.fromKeys(Globalizer.seedKeys(runAguilar.detections))
    runAguilar.scored.foreach { case (rec, _) =>
      val tokens = rec.key.split(" ").toIndexedSeq
      assert(seedTrie.scan(tokens) == Seq((0, tokens.length)), s"unseeded candidate ${rec.key}")
    }
  }

  test("ablation ordering (Fig. 6): local ≤ local+mention-extraction ≤ full framework on recall") {
    val localR = runAguilar.localEval.recall
    // Mention extraction alone: treat every candidate as an entity (α).
    val allAlpha = runAguilar.scored.map { case (r, _) => r.key -> EntityClassifier.Alpha }.toMap
    val extractionOnly = Metrics.score(Globalizer.assembleOutput(runAguilar.mined,
      runAguilar.detections, allAlpha.get(_)), Metrics.goldSpans(TweetGen.tweets(spark.sparkContext, spec)))
    val extractionR = extractionOnly.recall
    val fullR = runAguilar.globalEval.recall
    assert(extractionR >= localR, s"extraction=$extractionR local=$localR")
    assert(extractionR >= fullR, "α-everything has maximal recall")
    // But the classifier recovers precision that extraction-only loses.
    val extractionP = extractionOnly.precision
    assert(runAguilar.globalEval.precision > extractionP)
  }

  test("β-labelled candidates are fully removed from the output") {
    val betaKeys = runAguilar.scored.collect {
      case (r, s) if EntityClassifier.bandOf(s) == EntityClassifier.Beta => r.key
    }.toSet
    assert(betaKeys.nonEmpty, "expected some β candidates")
    val outSpans = runAguilar.spans.toSet
    runAguilar.mined.filter(m => betaKeys.contains(m.key)).foreach { m =>
      assert(!outSpans.contains(m.span), s"β candidate ${m.key} leaked span into output")
    }
  }

  test("α-labelled candidates contribute all their mined mentions") {
    val alphaKeys = runAguilar.scored.collect {
      case (r, s) if EntityClassifier.bandOf(s) == EntityClassifier.Alpha => r.key
    }.toSet
    assert(alphaKeys.nonEmpty)
    val outSpans = runAguilar.spans.toSet
    runAguilar.mined.filter(m => alphaKeys.contains(m.key)).foreach { m =>
      assert(outSpans.contains(m.span))
    }
  }

  test("γ-labelled candidates keep only their local detections") {
    val gammaKeys = runAguilar.scored.collect {
      case (r, s) if EntityClassifier.bandOf(s) == EntityClassifier.Gamma => r.key
    }.toSet
    if (gammaKeys.nonEmpty) {
      val outSpans = runAguilar.spans.toSet
      val localSpans = runAguilar.detections.map(_.span).toSet
      val alphaKeys = runAguilar.scored.collect {
        case (r, s) if EntityClassifier.bandOf(s) == EntityClassifier.Alpha => r.key
      }.toSet
      // A γ mention in the output must be either a local detection or covered
      // by an α mention at the same span.
      val alphaSpans = runAguilar.mined.filter(m => alphaKeys.contains(m.key)).map(_.span).toSet
      runAguilar.mined.filter(m => gammaKeys.contains(m.key)).foreach { m =>
        if (outSpans.contains(m.span))
          assert(localSpans.contains(m.span) || alphaSpans.contains(m.span),
            s"γ candidate ${m.key} emitted a non-local span")
      }
    }
  }

  test("most true entities among candidates are not confidently rejected (error analysis #2)") {
    val entityKeys = spec.entityKeys
    val trueCand = runAguilar.scored.filter { case (r, _) => entityKeys.contains(r.key) }
    assert(trueCand.nonEmpty)
    val betaFrac = trueCand.count { case (_, s) =>
      EntityClassifier.bandOf(s) == EntityClassifier.Beta
    }.toDouble / trueCand.size
    assert(betaFrac < 0.25, s"too many true entities β-rejected: $betaFrac")
  }

  test("frequent candidates get confident labels more often than singletons (Fig. 7)") {
    def confident(sel: CandidateRecord => Boolean): Double = {
      val s = runAguilar.scored.filter(x => sel(x._1))
      if (s.isEmpty) 1.0
      else s.count(x => EntityClassifier.bandOf(x._2) != EntityClassifier.Gamma).toDouble / s.size
    }
    val freq = confident(_.mentionCount >= 8)
    val rare = confident(_.mentionCount <= 2)
    assert(freq >= rare, s"freq=$freq rare=$rare")
  }

  test("timings are recorded and non-negative") {
    assert(runAguilar.timings.localSec >= 0)
    assert(runAguilar.timings.globalOverheadSec > 0)
    assert(runAguilar.timings.totalSec >= runAguilar.timings.localSec)
    // A micro-batch times itself too: each half of a warm iteration runs a Spark job.
    val state = new StreamingGlobalizer.State
    def process(lo: Long, hi: Long): StreamingGlobalizer.Iteration = StreamingGlobalizer.processBatch(
      TweetGen.tweets(spark.sparkContext, spec, lo, hi), spec, NpChunker, trainedChunker.classifier, None, state)
    process(0, 300)
    val warm = process(300, 600).timings
    assert(warm.localSec > 0 && warm.globalOverheadSec > 0, warm)
  }

  test("DevStream evaluation counts are pinned for every system (D5Mini models)") {
    // (tp, fp, fn) of Local EMD and of the full framework.
    val golden = Seq(
      NpChunker  -> ((EvalCounts(307, 534, 280), EvalCounts(339, 100, 248))),
      TwitterNlp -> ((EvalCounts(194, 156, 393), EvalCounts(276, 70, 311))),
      Aguilar    -> ((EvalCounts(238, 94, 349), EvalCounts(263, 46, 324))),
      BerTweet   -> ((EvalCounts(274, 136, 313), EvalCounts(357, 84, 230))))
    golden.foreach { case (system, (local, global)) =>
      val t = TestFixtures.trained(spark, system)
      val out = Globalizer.run(spark, spec, system, t.classifier, t.phraseEmbedder,
        chargeEmbeddingCost = false)
      assert((out.localEval, out.globalEval) == ((local, global)), system.name)
      assert(out.spans.size == out.spans.distinct.size, system.name)
    }
  }

  test("a run's local and global scores equal separate evaluate calls") {
    val tweets = TweetGen.generate(spark, spec)
    Seq(runAguilar, runChunker).foreach { out =>
      assert(out.localEval == Metrics.evaluate(Metrics.detectionSpans(out.localDets), tweets))
      assert(out.globalEval == Metrics.evaluate(out.finalSpans, tweets))
    }
  }

  test("a run leaves nothing cached") {
    val sc = spark.sparkContext
    val clf = trainedChunker.classifier
    val before = sc.getPersistentRDDs.size
    Globalizer.run(spark, spec, NpChunker, clf, None, chargeEmbeddingCost = false)
    assert(sc.getPersistentRDDs.size == before)
  }

  test("the embedding-cost pass accepts an empty batch") {
    import spark.implicits._
    val dets = Globalizer.localPhase(spark.emptyDataset[Tweet], Aguilar, spec, chargeEmbeddingCost = true)
    assert(dets.count() == 0)
    dets.unpersist()
  }

  test("output assembly is narrow: no aggregation and no shuffle") {
    val bands = runChunker.scored.map { case (r, s) => r.key -> EntityClassifier.bandOf(s) }.toMap
    val (spans, jobs) = stagesPerJob(Globalizer.assembleOutput(runChunker.mined, runChunker.detections, bands.get(_)))
    // Assembly runs on the driver: it starts no Spark job.
    assert(jobs.isEmpty, jobs)
    assert(spans.toSet == runChunker.spans.toSet)
    // The stream sink's DataFrame is built from such spans, with no aggregate or exchange.
    val out = Metrics.spanFrame(spark, StreamingGlobalizer.processBatch(TweetGen.tweets(spark.sparkContext, spec),
      spec, NpChunker, trainedChunker.classifier, None, new StreamingGlobalizer.State).spans)
    val qe = out.queryExecution
    assert(qe.optimizedPlan.collect { case a: Aggregate => a }.isEmpty, qe.optimizedPlan)
    assert(!planNodes(qe.executedPlan).exists(_.isInstanceOf[Exchange]), qe.executedPlan)
    assert(out.count() == spans.size)
  }

  test("a warm run runs one-stage jobs only: exactly 2 with NP Chunker, 2 with Aguilar") {
    // Local detection, which also returns the gold spans and, for Aguilar
    // charged with the embedding cost, the embedding checksum; then mining
    // with pooling.
    Seq(NpChunker -> trainedChunker, Aguilar -> trainedAguilar).foreach { case (system, t) =>
      def run(): Globalizer.RunOutput = Globalizer.run(spark, spec, system, t.classifier, t.phraseEmbedder)
      run()
      val (_, stages) = stagesPerJob(run())
      assert(stages == Seq(1, 1), s"${system.name}: $stages")
    }
  }

  test("a run's Dataset views hold exactly its driver-side spans, detections and mined spans") {
    val out = runChunker
    assert(out.localDets.collect().toSeq == out.detections)
    assert(out.mentions.collect().toSeq == out.mined)
    assert(Metrics.spansOf(out.finalSpans) == out.spans)
    assert(out.detections.nonEmpty && out.mined.nonEmpty && out.spans.nonEmpty)
  }

  test("the Dataset assembleOutput yields exactly a run's driver-side spans") {
    val out = runChunker
    val trie = spark.sparkContext.broadcast(CTrie.fromKeys(Globalizer.seedKeys(out.detections)))
    val mined = MentionExtractor.mine(TweetGen.generate(spark, spec), trie, NpChunker, spec.seed, None)
    val bands = out.scored.map { case (r, s) => r.key -> EntityClassifier.bandOf(s) }.toMap
    assert(Metrics.spansOf(Globalizer.assembleOutput(mined, out.localDets, bands)) == out.spans)
    trie.destroy()
  }

  test("repeated detections of a sentence are emitted once, and the output stays distinct") {
    val tweets = TweetGen.generateLocal(spec)
    val dets = tweets.flatMap(DoubledChunker.detector(spec))
    assert(dets.size == dets.distinct.size)
    assert(dets.toSet == tweets.flatMap(NpChunker.detector(spec)).toSet)
    val out = Globalizer.run(spark, spec, DoubledChunker, trainedChunker.classifier, None,
      chargeEmbeddingCost = false)
    assert(out.spans.size == out.spans.distinct.size)
    assert((out.localEval, out.globalEval) == ((runChunker.localEval, runChunker.globalEval)))
  }

  test("run is deterministic in evaluation counts") {
    val again = Globalizer.run(spark, spec, Aguilar, trainedAguilar.classifier,
      trainedAguilar.phraseEmbedder, chargeEmbeddingCost = false)
    assert(again.localEval == runAguilar.localEval)
    assert(again.globalEval == runAguilar.globalEval)
  }
}
