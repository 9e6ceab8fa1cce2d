package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.data.TweetGen
import repro.emd.LocalEmd

/** Closed loop of warm `Globalizer.run` calls over one generated dataset:
  * the next run starts when the previous one has returned and its outputs
  * have been read and released.
  */
final case class BatchWorkload(name: String, system: LocalEmd, shape: TweetGen.Spec) extends Workload {

  import BatchWorkload._

  /** Warm-up runs inside set-up: a fresh JVM needs about three runs to reach its steady run time. */
  val WarmupRuns = 3
  /** Fewest operations in a measurement, whatever `--seconds` says. */
  val MinRuns = 3

  /** One timed `Globalizer.run`; its outputs are read and released after the clock stops. */
  private def timedRun(spark: SparkSession, spec: TweetGen.Spec, t: Training.Trained): RunSummary = {
    val t0 = System.nanoTime()
    val out = Globalizer.run(spark, spec, system, t.classifier, t.phraseEmbedder)
    val wall = (System.nanoTime() - t0) / 1e9
    val summary = RunSummary(wall, out.scored, Reference.spansOf(out.finalSpans), out.localEval, out.globalEval)
    out.localDets.unpersist()
    out.mentions.unpersist()
    out.finalSpans.unpersist()
    summary
  }

  def run(ctx: Context): Unit = {
    val spec = shape.copy(seed = ctx.seed)
    val r = ctx.result
    val tweets = TweetGen.generateLocal(spec) // the reference's input, made before any timing

    val trained = ctx.train(system)
    val warm = (1 to WarmupRuns).map(_ => timedRun(ctx.spark, spec, trained))
    ctx.setupDone()

    val sc = ctx.spark.sparkContext
    val storageBefore = Memory.storageMb(sc)
    // Untraced runs until `--seconds` have passed. A trace run alternates
    // untraced runs with traced decompositions, so that both see the same
    // JIT state and their difference is the tracing overhead.
    val runs = Vector.newBuilder[RunSummary]
    val traced = Vector.newBuilder[(Double, EvalCounts, EvalCounts)]
    var started = System.nanoTime()
    var n = 0
    while (n < MinRuns || (System.nanoTime() - started) / 1e9 < ctx.seconds) {
      n += 1
      try {
        if (ctx.trace && n % 2 == 0) traced += tracedRun(ctx, spec, trained, ctx.tracer)
        else runs += timedRun(ctx.spark, spec, trained)
      } catch { case e: Exception => r.attempted += 1; r.fail(s"operation $n threw $e") }
      // Retained memory after a fixed number of runs (the warm-up and the
      // first MinRuns), so that it does not grow with how many runs fit in
      // the window. Its collections are kept out of the window.
      if (!ctx.trace && n == MinRuns) {
        val t0 = System.nanoTime()
        r("retained_mb") = Memory.retainedMb()
        started += System.nanoTime() - t0
      }
    }
    val done = runs.result()
    require(done.nonEmpty, s"every one of $n runs threw")
    Console.err.println(s"[perfbench] run seconds: warm-up ${warm.map(_.wallS).mkString(" ")}; " +
      s"measured ${done.map(_.wallS).mkString(" ")}")

    // Checked once the measurement is over, so that the single-node
    // reference's work does not run between measured runs.
    val ref = Reference.batch(tweets, system, spec, trained.classifier, trained.phraseEmbedder)
    (warm ++ done).zipWithIndex.foreach { case (s, i) =>
      r.attempted += 1
      val d = Reference.diff(ref, s.scored, s.spans, s.localEval, s.globalEval)
      if (d.nonEmpty) r.fail(s"run $i: ${d.mkString("; ")}")
    }
    val walls = done.map(_.wallS)
    val last = done.last

    if (!ctx.trace) {
      // Closed loop: every tweet of a run is due when the run starts and
      // reaches the caller when it returns.
      r("setup_s") = ctx.setupS
      r("run_s") = Stats.median(walls)
      r("latency_p50_ms") = Stats.percentile(walls, 50) * 1e3
      r("latency_p90_ms") = Stats.percentile(walls, 90) * 1e3
      r("f1") = last.globalEval.f1
      r("slo_met_share") = walls.count(_ <= SloSeconds).toDouble / walls.size
    } else {
      val tracer = ctx.tracer
      val tracedRuns = traced.result()
      r.attempted += tracedRuns.size
      tracedRuns.foreach { case (_, le, ge) =>
        if (le != last.localEval || ge != last.globalEval)
          r.fail(s"traced decomposition eval $le / $ge != Globalizer.run ${last.localEval} / ${last.globalEval}")
      }
      tracer.settle()
      val cores = sc.defaultParallelism
      Catalogue.spans.foreach { s => val (w, t) = tracer.summary(s); r.putSpan(s, w, t, cores) }
      r("trace.local_s") = tracer.summary("core.Globalizer.localPhase")._1
      r("trace.global_s") = Seq("core.Globalizer.seedKeys", "core.CTrie.fromKeys", "core.MentionExtractor.mine",
        "core.GlobalPooling.pool", "core.EntityClassifier.score", "core.Globalizer.assembleOutput")
        .map(tracer.summary(_)._1).sum
      r("trace.overhead_s") = Stats.median(tracedRuns.map(_._1)) - Stats.median(walls)

      // A batch run is one micro-batch over fresh state.
      r("state.candidates") = last.scored.size.toDouble
      r("state.pool_doubles") = last.scored.map(_._1.pooled.length.toLong).sum.toDouble
      r("state.touched_share") = 1.0
      r("storage.cached_rdds") = sc.getPersistentRDDs.size.toDouble
      r("storage.mb_per_batch") = (Memory.storageMb(sc) - storageBefore) / done.size
      Seq("stream.addBatch_ms_p50", "stream.commit_ms_p50", "stream.queue_wait_ms_p50", "stream.sink_ms_p50",
        "gen.late_ms_max", "gen.behind").foreach(r(_) = 0.0)
      r("stream.batches") = done.size.toDouble
      r("stream.latency_samples") = (done.size * spec.nTweets).toDouble
      r("slo_miss_share") = walls.count(_ > SloSeconds).toDouble / walls.size
      Kernels.measure(r, tweets, system, spec, trained, ref.candidates)
      putEval(r, last.localEval, last.globalEval)
    }
    r("error_share") = r.failed.toDouble / r.attempted
  }

  /** `Globalizer.run` decomposed into its module calls, one span each, in
    * the order the run makes them. `emd.LocalEmd.detectAll` is timed on its
    * own first, so that `localPhase` minus it is the embedding-cost pass.
    * Returns the traced wall time comparable with an untraced run, and the
    * eval counts, which must equal the untraced run's.
    */
  private def tracedRun(ctx: Context, spec: TweetGen.Spec, t: Training.Trained,
                        tracer: Tracer): (Double, EvalCounts, EvalCounts) = {
    val spark = ctx.spark
    val t0 = System.nanoTime()
    val tweets = TweetGen.generate(spark, spec).persist(StorageLevel.MEMORY_AND_DISK)
    tweets.count()
    val extra0 = System.nanoTime()
    tracer.span("emd.LocalEmd.detectAll") {
      val d = system.detectAll(tweets, spec).persist(StorageLevel.MEMORY_AND_DISK)
      d.count()
      d.unpersist()
    }
    val extraS = (System.nanoTime() - extra0) / 1e9
    val localDets = tracer.span("core.Globalizer.localPhase")(
      Globalizer.localPhase(tweets, system, spec, chargeEmbeddingCost = true))
    val keys = tracer.span("core.Globalizer.seedKeys")(Globalizer.seedKeys(localDets))
    val trie = tracer.span("core.CTrie.fromKeys")(spark.sparkContext.broadcast(CTrie.fromKeys(keys)))
    val mentions = tracer.span("core.MentionExtractor.mine") {
      val m = MentionExtractor.mine(tweets, trie, system, spec.seed, t.phraseEmbedder)
        .persist(StorageLevel.MEMORY_AND_DISK)
      ctx.result("core.MentionExtractor.mine.mentions") = m.count().toDouble
      m
    }
    val records = tracer.span("core.GlobalPooling.pool")(GlobalPooling.pool(mentions).collect().toSeq)
    val bands = tracer.span("core.EntityClassifier.score") {
      records.map(r => r.key -> EntityClassifier.bandOf(t.classifier.score(r))).toMap
    }
    Seq("alpha" -> EntityClassifier.Alpha, "beta" -> EntityClassifier.Beta, "gamma" -> EntityClassifier.Gamma)
      .foreach { case (n, b) => ctx.result(s"core.EntityClassifier.score.$n") = bands.values.count(_ == b).toDouble }
    val finalSpans = tracer.span("core.Globalizer.assembleOutput") {
      val f = Globalizer.assembleOutput(mentions, localDets, bands).cache()
      f.count()
      f
    }
    val (localEval, globalEval) = tracer.span("core.Metrics.evaluate") {
      (Metrics.evaluate(Metrics.detectionSpans(localDets), tweets), Metrics.evaluate(finalSpans, tweets))
    }
    val wall = (System.nanoTime() - t0) / 1e9 - extraS
    Seq(tweets, localDets, mentions, finalSpans).foreach(_.unpersist())
    trie.destroy()
    (wall, localEval, globalEval)
  }
}

object BatchWorkload {
  private[perfbench] final case class RunSummary(wallS: Double,
                                      scored: Seq[(CandidateRecord, Double)],
                                      spans: Set[Reference.Span],
                                      localEval: EvalCounts,
                                      globalEval: EvalCounts)
}
