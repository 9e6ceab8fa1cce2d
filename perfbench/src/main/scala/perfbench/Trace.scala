package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable

/** Spark task metrics summed over the tasks of one span. */
final case class TaskTotals(tasks: Long, taskS: Double, cpuS: Double, gcS: Double, shuffleBytes: Long) {
  def +(o: TaskTotals): TaskTotals =
    TaskTotals(tasks + o.tasks, taskS + o.taskS, cpuS + o.cpuS, gcS + o.gcS, shuffleBytes + o.shuffleBytes)
}

object TaskTotals {
  val zero: TaskTotals = TaskTotals(0, 0, 0, 0, 0)
}

/** Attributes the task metrics of every Spark job to the span that was open
  * on the submitting thread. The bench opens a span by setting the local
  * property [[SpanListener.Property]]; jobs carry their submitter's local
  * properties, and each stage is charged to its job's span.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, String]
  private val totals = mutable.Map.empty[String, TaskTotals]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanListener.Property)))
    span.foreach(s => e.stageIds.foreach(id => stageSpan(id) = s))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (span <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = TaskTotals(1, m.executorRunTime / 1e3, m.executorCpuTime / 1e9, m.jvmGCTime / 1e3,
        m.shuffleWriteMetrics.bytesWritten)
      totals(span) = totals.getOrElse(span, TaskTotals.zero) + t
    }
  }

  def totalsOf(span: String): TaskTotals = synchronized(totals.getOrElse(span, TaskTotals.zero))
}

object SpanListener {
  val Property = "perfbench.span"
}

/** Spans recorded around calls into the program's modules. A span's wall
  * time is its own; its task metrics come from the [[SpanListener]]. A span
  * run several times reports the median wall time and the task metrics of
  * the repetition with that median.
  */
final class Tracer(sc: SparkContext) {
  private val listener = new SpanListener
  sc.addSparkListener(listener)

  /** (span name, tag of one execution, wall seconds, task totals once settled). */
  private val records = mutable.ArrayBuffer.empty[(String, String, Double, TaskTotals)]

  def span[A](name: String)(f: => A): A = {
    val tag = s"$name#${records.size}"
    val prior = sc.getLocalProperty(SpanListener.Property)
    sc.setLocalProperty(SpanListener.Property, tag)
    val t0 = System.nanoTime()
    try f
    finally {
      records += ((name, tag, (System.nanoTime() - t0) / 1e9, TaskTotals.zero))
      sc.setLocalProperty(SpanListener.Property, prior)
    }
  }

  /** Wait until the listener has seen every finished task, then attach task totals. */
  def settle(): Unit = {
    org.apache.spark.perfbench.ListenerBusAccess.drain(sc)
    records.indices.foreach { i =>
      val (name, tag, s, _) = records(i)
      records(i) = (name, tag, s, listener.totalsOf(tag))
    }
  }

  /** Median wall seconds of a span and the task totals of that execution;
    * zeros for a span that never ran.
    */
  def summary(name: String): (Double, TaskTotals) = {
    val runs = records.filter(_._1 == name)
    if (runs.isEmpty) (0.0, TaskTotals.zero)
    else {
      val m = Stats.median(runs.map(_._3).toSeq)
      val r = runs.find(_._3 == m).get
      (r._3, r._4)
    }
  }
}
