package repro.jobs

import repro.data.TweetGen
import repro.emd.LocalEmd
import repro.exp.Experiments

/** spark-submit entrypoint reproducing Table III (effectiveness and
  * execution time with EMD Globalizer, 6 datasets × 4 Local EMD systems).
  *
  * Optional args: dataset names and/or system names to restrict the sweep,
  * e.g. `RunTable3 D1 D2 BERTweet`.
  */
object RunTable3 {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("repro-table3")
    val specs = TweetGen.evalSpecs.filter(s => args.contains(s.name))
    val systems = LocalEmd.all.filter(s => args.contains(s.name))
    val useSpecs = if (specs.isEmpty) TweetGen.evalSpecs else specs
    val useSystems = if (systems.isEmpty) LocalEmd.all else systems
    try {
      val rows = Experiments.table3(spark, useSpecs, useSystems)
      println(Experiments.renderTable3(rows))
      println(f"Average F1 gain: ${Experiments.avgGain(rows)}%.2f%%")
    } finally spark.stop()
  }
}
