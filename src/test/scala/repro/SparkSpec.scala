package repro

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Jobs

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run,
  * built like the job entrypoints' (`Jobs.session`).
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Every node of a physical plan, walking into adaptive plans, their
    * query stages and cached relations.
    */
  def planNodes(p: SparkPlan): Seq[SparkPlan] = p +: (p match {
    case a: AdaptiveSparkPlanExec => Seq(a.executedPlan)
    case s: QueryStageExec => Seq(s.plan)
    case m: InMemoryTableScanExec => Seq(m.relation.cachedPlan)
    case _ => p.children
  }).flatMap(planNodes)

  /** `body`'s result and the stage count of each Spark job it started, in
    * start order. A job that reads a shuffle lists its map stage too.
    */
  def stagesPerJob[T](body: => T): (T, Seq[Int]) = {
    val sc = spark.sparkContext
    val probe = "repro.test.stagesPerJob"
    val stages = new ConcurrentLinkedQueue[Int]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(probe) != null)) stages.add(e.stageInfos.size)
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(probe, "1")
    val out =
      try body
      finally {
        sc.setLocalProperty(probe, null)
        ListenerBusDrain(sc)
        sc.removeSparkListener(listener)
      }
    (out, stages.asScala.toSeq)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Jobs.session("repro")
    // One line in test output recording the heap and parallelism the suite ran with.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
