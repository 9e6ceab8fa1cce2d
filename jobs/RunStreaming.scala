package repro.jobs

import repro.core.{Metrics, StreamingGlobalizer}
import repro.data.TweetGen
import repro.emd.BerTweet
import repro.exp.Experiments

/** spark-submit entrypoint demonstrating the streaming execution mode:
  * dataset D2 (the Coronavirus stream of the paper's case study) processed
  * in micro-batches with incremental CandidateBase state, reporting the
  * per-batch cumulative EMD quality.
  *
  * Args: [dataset] [nBatches] (defaults: D2 8).
  */
object RunStreaming {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("repro-streaming")
    try {
      val spec = TweetGen.allSpecs.find(_.name == args.headOption.getOrElse("D2")).getOrElse(TweetGen.D2)
      val nBatches = args.lift(1).map(_.toInt).getOrElse(8)
      val trained = Experiments.TrainedCache.get(spark, BerTweet)
      val (out, state) = StreamingGlobalizer.runBatched(
        spark, spec, BerTweet, trained.classifier, trained.phraseEmbedder, nBatches)
      val eval = Metrics.score(Metrics.spansOf(out), Metrics.goldSpans(TweetGen.tweets(spark.sparkContext, spec)))
      println(s"[streaming] ${spec.name} over $nBatches micro-batches: " +
        f"P=${eval.precision}%.3f R=${eval.recall}%.3f F1=${eval.f1}%.3f " +
        s"candidates=${state.keys.size}")
    } finally spark.stop()
  }
}
