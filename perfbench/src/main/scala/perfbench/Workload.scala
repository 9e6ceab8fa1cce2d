package perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import repro.core.{EntityClassifier, EvalCounts, Training}
import repro.data.TweetGen
import repro.emd.{Aguilar, BerTweet, LocalEmd, NpChunker}
import repro.util.Rng

trait Workload {
  def name: String
  /** Set up (the session is already started), measure, check; fill `ctx.result`. */
  def run(ctx: Context): Unit

  /** A tweet whose output reaches the caller later than this after it was due misses the limit. */
  val SloSeconds = 10.0

  def putEval(r: Result, local: EvalCounts, global: EvalCounts): Unit = {
    Seq("local" -> local, "global" -> global).foreach { case (n, e) =>
      r(s"eval.$n.tp") = e.tp.toDouble
      r(s"eval.$n.fp") = e.fp.toDouble
      r(s"eval.$n.fn") = e.fn.toDouble
    }
  }
}

object Workload {
  /** Why each workload is here: see perfbench/README.md. */
  val all: Seq[Workload] = Seq(
    BatchWorkload("batch-bertweet-d4", BerTweet, TweetGen.D4),
    BatchWorkload("batch-chunker-btc", NpChunker, TweetGen.BTC),
    StreamWorkload("stream-aguilar-d5", Aguilar, TweetGen.D5, tweetsPerTick = 40, tickMs = 100),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The classifier's training stream, as the program's tests train it. */
  val TrainSpec: TweetGen.Spec = TweetGen.D5Mini
}

/** One bench run's session, options and clocks. Set-up time runs from the
  * session start to [[setupDone]].
  */
final class Context(val spark: SparkSession, val seed: Long, val seconds: Int, val trace: Boolean,
                    val result: Result, setupStart: Long) {
  private var setupEnd: Long = -1L

  lazy val tracer: Tracer = new Tracer(spark.sparkContext)

  /** Set-up ends now, or at `at` in the `System.nanoTime` clock. */
  def setupDone(at: Long = System.nanoTime()): Unit = setupEnd = at

  def setupS: Double = {
    require(setupEnd > 0, "set-up has not finished")
    (setupEnd - setupStart) / 1e9
  }

  /** Train as `Training.trainFor(spark, system, D5Mini)` does, making its
    * three calls one by one so that each is timed (a self-test checks that
    * the models are the same). Every run trains this way; only a trace run
    * prints the three times.
    */
  def train(system: LocalEmd): Training.Trained = {
    def timed[A](metric: String)(f: => A): A = {
      val t0 = System.nanoTime()
      val a = f
      result(metric) = (System.nanoTime() - t0) / 1e9
      a
    }
    result("core.Training.trainPhraseEmbedder.s") = 0.0
    val (pe, peLoss) =
      if (system.deep) {
        val (p, l) = timed("core.Training.trainPhraseEmbedder.s")(Training.trainPhraseEmbedder(system))
        (Some(p), Some(l))
      } else (None, None)
    val labelled = timed("core.Training.d5Candidates.s")(
      Training.d5Candidates(spark, system, pe, Workload.TrainSpec))
    val (clf, valF1) = timed("core.EntityClassifier.train.s")(
      EntityClassifier.train(labelled, seed = Rng.hash(0xC1FL, system.params.salt)))
    Training.Trained(system, pe, peLoss, clf, valF1, labelled.size)
  }
}

object Memory {
  private val MB = 1024.0 * 1024.0

  /** Storage memory in use by the block manager (cached blocks and broadcasts). */
  def storageMb(sc: SparkContext): Double =
    sc.getExecutorMemoryStatus.values.map { case (max, free) => max - free }.sum / MB

  /** Heap still in use after full collections, once Spark's cleaner has had
    * time to drop blocks whose owners were collected.
    */
  def retainedMb(): Double = {
    val heap = ManagementFactory.getMemoryMXBean
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(200) }
    heap.getHeapMemoryUsage.getUsed / MB
  }
}
