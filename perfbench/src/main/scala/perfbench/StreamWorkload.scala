package perfbench

import java.time.Instant
import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryListener
import org.apache.spark.sql.streaming.StreamingQueryListener._
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.data.TweetGen
import repro.emd.LocalEmd

import scala.jdk.CollectionConverters._

/** Open loop: one generator thread adds `tweetsPerTick` tweets to a
  * `MemoryStream` every `tickMs`, whether or not earlier ones are done, and
  * `StreamingGlobalizer.runStream` processes them in micro-batches. A
  * tweet's latency runs from its tick's due time to the moment its
  * micro-batch's output reaches the sink.
  *
  * The measured window opens once the query has finished
  * [[WarmupQueryBatches]] micro-batches, so that measured micro-batches run
  * warm code on a stream that already holds state and a steady backlog, as
  * a long-running query does. It holds a fixed number of micro-batches (see
  * [[measuredBatches]]), not a fixed time, so that every figure rests on as
  * many micro-batches whatever their speed. Set-up ends when the window
  * opens.
  */
final case class StreamWorkload(name: String, system: LocalEmd, shape: TweetGen.Spec,
                                tweetsPerTick: Int, tickMs: Int) extends Workload {

  import StreamWorkload._

  /** Micro-batches of the query before the measured window opens: the
    * first micro-batches of a fresh JVM run twice as slow as later ones.
    */
  val WarmupQueryBatches = 8
  /** Most ticks the generator sends; bounds a run whose micro-batches are slow. */
  val MaxTicks = 600
  /** Tweets of the stream on which the local phase is traced on its own. */
  val LocalPhaseTweets = 6000
  val LocalPhaseReps = 3

  /** Micro-batches in the measured window: one per second of `--seconds`, at least ten. */
  def measuredBatches(seconds: Int): Int = math.max(10, seconds)

  def run(ctx: Context): Unit = {
    val spec = shape.copy(seed = ctx.seed)
    val r = ctx.result
    def tweetsOf(ids: Range): IndexedSeq[Tweet] = ids.map(id => TweetGen.makeTweet(spec, id.toLong))

    val trained = ctx.train(system)
    val run = stream(ctx, spec, trained, tweetsOf(0 until MaxTicks * tweetsPerTick), measuredBatches(ctx.seconds))
    require(run.windowStart >= 0, s"the query finished fewer than $WarmupQueryBatches micro-batches")
    ctx.setupDone(run.schedule.dueNanos(run.windowStart))
    val outputs = run.sunk.map { case (id, s) => id -> Reference.spansOf(s.out) }
    run.sunk.values.foreach(_.out.unpersist())
    // After the same number of micro-batches in every run, give or take the
    // one holding the window's first tick and the last ones after it.
    if (!ctx.trace) r("retained_mb") = Memory.retainedMb()

    // Check: replay the recorded micro-batch ranges through the reference.
    val tweets = tweetsOf(0 until run.sentTicks * tweetsPerTick)
    r.attempted = tweets.size
    val replay = new Reference.StreamReplay(system, spec, trained.classifier, trained.phraseEmbedder)
    val processed = run.progress.filter(p => run.sunk.contains(p.batchId))
    processed.foreach { p =>
      val batch = p.ticks.flatMap(run.schedule.tweetIds).map(tweets)
      val expected = replay.next(batch)
      val got = outputs(p.batchId)
      if (got != expected)
        r.fail(s"micro-batch ${p.batchId} (ticks ${p.ticks.head}..${p.ticks.last}): " +
          s"${(got diff expected).size} extra, ${(expected diff got).size} missing spans", batch.size)
    }
    run.error.foreach(e => r.fail(s"stream failed: ${e.getMessage}",
      tweets.size - processed.map(_.ticks.size * tweetsPerTick).sum))

    val n = measuredBatches(ctx.seconds)
    val window = Window.measured(processed, run.windowStart, n)
    if (window.size < n)
      Console.err.println(s"[perfbench] only ${window.size} of $n micro-batches fit in the run")
    val windowTicks = Window.ticks(window, run.windowStart, n, run.sentTicks)
    // Per tweet of the measured window (weighted by tick): due time → output at the sink.
    val latencyMs = window.flatMap(p => p.ticks.map(run.schedule.latencyMs(_, run.sunk(p.batchId).nanos)))
    val sloMet = latencyMs.count(_ <= SloSeconds * 1e3).toDouble / windowTicks.size
    if (Stats.samplesBeyond(latencyMs.size * tweetsPerTick, 90) < 10)
      Console.err.println("[perfbench] fewer than ten latency samples beyond p90")
    val lateMs = run.lateMs.take(run.sentTicks)
    val lateMax = lateMs.max
    if (lateMax > tickMs)
      Console.err.println(f"[perfbench] generator fell behind its schedule by up to $lateMax%.0f ms")
    val gold = Reference.goldSpans(tweets)
    val globalEval = Reference.evaluate(outputs.values.flatten.toSet, gold)

    if (!ctx.trace) {
      r("setup_s") = ctx.setupS
      r("run_s") = Stats.median(window.map(_.triggerMs / 1e3))
      r("latency_p50_ms") = Stats.percentile(latencyMs, 50)
      r("latency_p90_ms") = Stats.percentile(latencyMs, 90)
      r("f1") = globalEval.f1
      r("slo_met_share") = sloMet
    } else {
      // Trigger start in the nanoTime clock, from the progress's wall-clock timestamp.
      val epochMinusNanos = System.currentTimeMillis() - System.nanoTime() / 1000000L
      def startNanos(p: Progress): Long = (p.startEpochMs - epochMinusNanos) * 1000000L
      r("stream.addBatch_ms_p50") = Stats.median(window.map(_.addBatchMs.toDouble))
      r("stream.commit_ms_p50") = Stats.median(window.map(_.commitMs.toDouble))
      r("stream.queue_wait_ms_p50") = Stats.median(window.flatMap(p =>
        p.ticks.map(k => math.max(0L, startNanos(p) - run.schedule.dueNanos(k)) / 1e6)))
      r("stream.sink_ms_p50") = Stats.median(window.map(p => (run.sunk(p.batchId).nanos - startNanos(p)) / 1e6))
      r("stream.batches") = window.size.toDouble
      r("stream.latency_samples") = (latencyMs.size * tweetsPerTick).toDouble

      val traces = window.flatMap(p => run.traces.get(p.batchId))
      val last = traces.last
      r("state.candidates") = last.candidates.toDouble
      r("state.pool_doubles") = last.poolDoubles.toDouble
      r("state.touched_share") = Stats.median(traces.map(_.touchedShare))
      r("storage.cached_rdds") = last.cachedRdds.toDouble
      r("storage.mb_per_batch") =
        if (traces.size < 2) 0.0 else (last.storageMb - traces.head.storageMb) / (traces.size - 1)

      // processBatch is opaque from outside and skips the embedding-cost
      // pass. Its driver-side steps are re-run in the sink (see `stream`);
      // the local phase, with that pass, is timed here on the stream's
      // first tweets, all at once.
      val tracer = ctx.tracer
      localPhaseSpans(ctx, spec, tweetsOf(0 until LocalPhaseTweets))
      tracer.settle()
      val cores = ctx.spark.sparkContext.defaultParallelism
      Catalogue.spans.foreach { s => val (w, t) = tracer.summary(s); r.putSpan(s, w, t, cores) }
      r("trace.local_s") = tracer.summary("core.Globalizer.localPhase")._1
      r("trace.global_s") = Stats.median(traces.map(b => b.fromKeysS + b.scoreS))
      r("trace.overhead_s") = Stats.median(traces.map(_.traceS))
      r("core.MentionExtractor.mine.mentions") = replay.pools.values.map(_.count).sum.toDouble
      val bands = replay.pools.map { case (k, c) =>
        EntityClassifier.bandOf(trained.classifier.score(CandidateRecord(k, c.count, c.mean)))
      }
      Seq("alpha" -> EntityClassifier.Alpha, "beta" -> EntityClassifier.Beta, "gamma" -> EntityClassifier.Gamma)
        .foreach { case (n, b) => r(s"core.EntityClassifier.score.$n") = bands.count(_ == b).toDouble }
      r("gen.late_ms_max") = lateMax
      r("gen.behind") = lateMs.count(_ > tickMs).toDouble
      r("slo_miss_share") = 1.0 - sloMet
      Kernels.measure(r, tweets, system, spec, trained, replay.pools)
      val local = Reference.detections(tweets, system, spec).map(d => (d.tweetId, d.sentId, d.start, d.len)).toSet
      putEval(r, Reference.evaluate(local, gold), globalEval)
    }
    r("error_share") = r.failed.toDouble / r.attempted
  }

  /** `LocalEmd.detectAll`, then `Globalizer.localPhase` with the
    * embedding-cost pass, on `tweets`, [[LocalPhaseReps]] times each; the
    * difference of their spans is the pass.
    */
  private def localPhaseSpans(ctx: Context, spec: TweetGen.Spec, tweets: Seq[Tweet]): Unit = {
    import ctx.spark.implicits._
    val ds = ctx.spark.createDataset(tweets).persist(StorageLevel.MEMORY_AND_DISK)
    ds.count()
    (1 to LocalPhaseReps).foreach { _ =>
      ctx.tracer.span("emd.LocalEmd.detectAll") {
        val d = system.detectAll(ds, spec).persist(StorageLevel.MEMORY_AND_DISK)
        d.count()
        d.unpersist()
      }
      ctx.tracer.span("core.Globalizer.localPhase")(
        Globalizer.localPhase(ds, system, spec, chargeEmbeddingCost = true)).unpersist()
    }
    ds.unpersist()
  }

  /** Run the stream until `n` micro-batches of the measured window are
    * done and every tick sent is processed, then stop it. `tweets` holds
    * the tweets of every tick the generator may send.
    */
  private def stream(ctx: Context, spec: TweetGen.Spec, t: Training.Trained,
                     tweets: IndexedSeq[Tweet], n: Int): StreamRun = {
    val spark = ctx.spark
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Tweet]
    val state = new StreamingGlobalizer.State
    val sunk = new ConcurrentHashMap[Long, Sunk]()
    val traces = new ConcurrentHashMap[Long, BatchTrace]()
    @volatile var open = false        // set by this thread: the warm-up is over
    @volatile var windowStart = -1    // set by the generator: first tick sent once open
    @volatile var stopSending = false
    @volatile var sent = 0
    var lastCounts = Map.empty[String, Long]

    // In the sink, after each micro-batch of the window: re-run outside the
    // program the two driver-side steps every micro-batch repeats over the
    // whole state, and read the state's size.
    def traceBatch(batchId: Long, tracer: Tracer): Unit = {
      val t0 = System.nanoTime()
      val sc = spark.sparkContext
      tracer.span("core.CTrie.fromKeys")(CTrie.fromKeys(state.keys))
      val t1 = System.nanoTime()
      tracer.span("core.EntityClassifier.score")(state.records.map(t.classifier.score))
      val t2 = System.nanoTime()
      val counts = state.pools.map { case (k, p) => k -> p.count }.toMap
      val touched = counts.count { case (k, c) => !lastCounts.get(k).contains(c) }
      lastCounts = counts
      traces.put(batchId, BatchTrace(counts.size, state.pools.valuesIterator.map(_.sum.length.toLong).sum,
        if (counts.isEmpty) 0.0 else touched.toDouble / counts.size,
        Memory.storageMb(sc), sc.getPersistentRDDs.size,
        (t1 - t0) / 1e9, (t2 - t1) / 1e9, (System.nanoTime() - t0) / 1e9))
    }

    val query = StreamingGlobalizer.runStream(input.toDS(), spec, system, t.classifier, t.phraseEmbedder, state,
      (batchId, out) => {
        sunk.put(batchId, Sunk(System.nanoTime(), out))
        if (ctx.trace && windowStart >= 0) traceBatch(batchId, ctx.tracer)
      })
    val progress = new ConcurrentHashMap[Long, Progress]()
    val listener = new StreamingQueryListener {
      override def onQueryStarted(e: QueryStartedEvent): Unit = ()
      override def onQueryTerminated(e: QueryTerminatedEvent): Unit = ()
      override def onQueryProgress(e: QueryProgressEvent): Unit = {
        val p = e.progress
        for (src <- p.sources.headOption if p.id == query.id; end <- Schedule.parseOffset(src.endOffset)) {
          val ticks = Schedule.ticksOf(Schedule.parseOffset(src.startOffset), end)
          def ms(k: String): Long = Option(p.durationMs.get(k)).map(_.longValue).getOrElse(0L)
          if (ticks.nonEmpty)
            progress.put(p.batchId, Progress(p.batchId, ticks, ms("triggerExecution"), ms("addBatch"),
              ms("commitOffsets"), Instant.parse(p.timestamp).toEpochMilli))
        }
      }
    }
    spark.streams.addListener(listener)

    val schedule = Schedule(System.nanoTime() + 50 * 1000000L, tickMs * 1000000L, tweetsPerTick)
    val lateMs = new Array[Double](MaxTicks)
    val generator = new Thread(() => {
      var k = 0
      while (k < MaxTicks && !stopSending) {
        val wait = schedule.dueNanos(k) - System.nanoTime()
        if (wait > 0) Thread.sleep(wait / 1000000L, (wait % 1000000L).toInt)
        lateMs(k) = math.max(0L, System.nanoTime() - schedule.dueNanos(k)) / 1e6
        if (open && windowStart < 0) windowStart = k
        input.addData(schedule.tweetIds(k).map(tweets))
        k += 1
        sent = k
      }
    }, "perfbench-generator")
    generator.start()

    // Open the window after the warm-up micro-batches, stop sending once
    // the window holds `n` micro-batches, and wait until every tick sent is
    // processed (or until even the last possible tick has missed its limit).
    val deadline = schedule.dueNanos(MaxTicks - 1) + (SloSeconds * 1e9).toLong + 1000000000L
    def batches = progress.values.asScala
    def finished: Boolean = !generator.isAlive && batches.exists(_.ticks.last == sent - 1)
    while (!finished && query.isActive && System.nanoTime() < deadline) {
      if (batches.size >= WarmupQueryBatches) open = true
      if (windowStart >= 0 && batches.count(_.ticks.head >= windowStart) >= n) stopSending = true
      Thread.sleep(5)
    }
    stopSending = true
    generator.join()
    query.stop()
    org.apache.spark.perfbench.ListenerBusAccess.drain(spark.sparkContext)
    spark.streams.removeListener(listener)

    val done = batches.toSeq.sortBy(_.batchId)
    done.foreach(p => Console.err.println(
      s"[perfbench] micro-batch ${p.batchId}: ticks ${p.ticks.head}..${p.ticks.last}, trigger ${p.triggerMs} ms"))
    StreamRun(schedule, sent, windowStart, sunk.asScala.toMap, done, lateMs.toSeq, query.exception,
      traces.asScala.toMap)
  }
}

object StreamWorkload {
  private[perfbench] final case class Sunk(nanos: Long, out: DataFrame)

  private[perfbench] final case class Progress(batchId: Long, ticks: Range, triggerMs: Long,
                                               addBatchMs: Long, commitMs: Long, startEpochMs: Long)

  /** What the trace records in the sink after a measured micro-batch. */
  private[perfbench] final case class BatchTrace(candidates: Int, poolDoubles: Long, touchedShare: Double,
                                                 storageMb: Double, cachedRdds: Int, fromKeysS: Double,
                                                 scoreS: Double, traceS: Double)

  private[perfbench] final case class StreamRun(schedule: Schedule, sentTicks: Int, windowStart: Int,
                                                sunk: Map[Long, Sunk], progress: Seq[Progress],
                                                lateMs: Seq[Double], error: Option[Throwable],
                                                traces: Map[Long, BatchTrace])

  /** The measured window of a stream run. */
  object Window {
    /** The first `n` micro-batches that hold only ticks sent once the window opened. */
    def measured(batches: Seq[Progress], windowStart: Int, n: Int): Seq[Progress] =
      batches.sortBy(_.batchId).filter(_.ticks.head >= windowStart).take(n)

    /** Ticks of the window: from its first tick to the last tick of its
      * `n`-th micro-batch or, if fewer fit in the run, to the last tick sent,
      * processed or not.
      */
    def ticks(measured: Seq[Progress], windowStart: Int, n: Int, sentTicks: Int): Range =
      if (measured.size >= n) windowStart to measured.last.ticks.last
      else windowStart until sentTicks
  }
}
