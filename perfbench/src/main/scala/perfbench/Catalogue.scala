package perfbench

import scala.collection.mutable

/** Every metric the bench prints, by name. `BENCHMARK.json` lists the same
  * names; a self-test keeps the two in step.
  */
object Catalogue {

  final case class Metric(name: String, unit: String, better: String)

  val endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s", "lower"),
    Metric("run_s", "s", "lower"),
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p90_ms", "ms", "lower"),
    Metric("f1", "share", "higher"),
    Metric("slo_met_share", "share", "higher"),
    Metric("retained_mb", "MB", "lower"),
  )

  /** Spans timed around calls into the program, each with the task metrics
    * the [[SpanListener]] attributes to it.
    */
  val spans: Seq[String] = Seq(
    "core.Globalizer.localPhase",
    "emd.LocalEmd.detectAll",
    "core.Globalizer.seedKeys",
    "core.CTrie.fromKeys",
    "core.MentionExtractor.mine",
    "core.GlobalPooling.pool",
    "core.EntityClassifier.score",
    "core.Globalizer.assembleOutput",
    "core.Metrics.evaluate",
  )

  val spanFields: Seq[(String, String)] = Seq(
    "s" -> "s", "tasks" -> "count", "task_s" -> "s", "task_cpu_s" -> "s",
    "gc_s" -> "s", "shuffle_bytes" -> "bytes", "busy_share" -> "share")

  val perLayer: Seq[Metric] =
    spans.flatMap(s => spanFields.map { case (f, u) => Metric(s"$s.$f", u, "lower") }) ++ Seq(
      Metric("core.MentionExtractor.mine.mentions", "count", "lower"),
      Metric("core.EntityClassifier.score.alpha", "count", "higher"),
      Metric("core.EntityClassifier.score.beta", "count", "lower"),
      Metric("core.EntityClassifier.score.gamma", "count", "lower"),
      Metric("stream.addBatch_ms_p50", "ms", "lower"),
      Metric("stream.commit_ms_p50", "ms", "lower"),
      Metric("stream.queue_wait_ms_p50", "ms", "lower"),
      Metric("stream.sink_ms_p50", "ms", "lower"),
      Metric("stream.batches", "count", "lower"),
      Metric("stream.latency_samples", "count", "higher"),
      Metric("state.candidates", "count", "lower"),
      Metric("state.pool_doubles", "count", "lower"),
      Metric("state.touched_share", "share", "higher"),
      Metric("storage.cached_rdds", "count", "lower"),
      Metric("storage.mb_per_batch", "MB", "lower"),
      Metric("core.Training.trainPhraseEmbedder.s", "s", "lower"),
      Metric("core.Training.d5Candidates.s", "s", "lower"),
      Metric("core.EntityClassifier.train.s", "s", "lower"),
      Metric("setup.session_s", "s", "lower"),
      Metric("emd.TokenEmbedder.tokenEmbedding.ns_per_token", "ns", "lower"),
      Metric("core.PhraseEmbedder.embed.ns_per_call", "ns", "lower"),
      Metric("core.CTrie.scan.tokens_per_s", "1/s", "higher"),
      Metric("nn.MlpClassifier.predictProba.ns_per_call", "ns", "lower"),
      Metric("trace.local_s", "s", "lower"),
      Metric("trace.global_s", "s", "lower"),
      Metric("trace.overhead_s", "s", "lower"),
      Metric("eval.local.tp", "count", "higher"),
      Metric("eval.local.fp", "count", "lower"),
      Metric("eval.local.fn", "count", "lower"),
      Metric("eval.global.tp", "count", "higher"),
      Metric("eval.global.fp", "count", "lower"),
      Metric("eval.global.fn", "count", "lower"),
      Metric("gen.late_ms_max", "ms", "lower"),
      Metric("gen.behind", "count", "lower"),
      Metric("error_share", "share", "lower"),
      Metric("slo_miss_share", "share", "lower"),
    )

  def forMode(trace: Boolean): Seq[Metric] = if (trace) perLayer else endToEnd
}

/** What one bench run measured and checked. */
final class Result {
  val values: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  var attempted: Long = 0
  var failed: Long = 0
  val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def update(name: String, v: Double): Unit = values(name) = v

  def fail(what: String, weight: Long = 1): Unit = { failed += weight; problems += what }

  /** Span wall time and task metrics, with busy share over `cores`. */
  def putSpan(name: String, s: Double, t: TaskTotals, cores: Int): Unit = {
    values(s"$name.s") = s
    values(s"$name.tasks") = t.tasks.toDouble
    values(s"$name.task_s") = t.taskS
    values(s"$name.task_cpu_s") = t.cpuS
    values(s"$name.gc_s") = t.gcS
    values(s"$name.shuffle_bytes") = t.shuffleBytes.toDouble
    values(s"$name.busy_share") = if (s > 0) t.taskS / (s * cores) else 0.0
  }

  /** The result line: every metric of the mode, in catalogue order. */
  def json(trace: Boolean): String = {
    val metrics = Catalogue.forMode(trace).map { m =>
      val v = values.getOrElse(m.name, throw new IllegalStateException(s"metric ${m.name} was not measured"))
      m.name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(m.unit)))
    }
    Json.obj(Seq(
      "correct" -> (problems.isEmpty && failed == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics)))
  }
}
