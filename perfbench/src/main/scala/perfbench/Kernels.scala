package perfbench

import repro.core._
import repro.data.TweetGen
import repro.emd.{LocalEmd, TokenEmbedder}

/** The per-token code under the pipeline stages, timed single-threaded on
  * the workload's own tweets and candidates. Each kernel repeats passes over
  * a fixed input until [[MinPassSeconds]] have run (at least three passes)
  * and reports the median pass. Embedding kernels read 0 for a system
  * without token embeddings.
  */
object Kernels {

  val MinPassSeconds = 0.3
  /** Tweets fed to the embedding kernels (each pass must stay short). */
  val EmbeddingTweets = 300

  /** Guards against the JIT dropping a kernel whose result goes unused. */
  @volatile private var sink = 0.0

  /** Median seconds of one pass of `pass`. */
  def medianPass(pass: () => Double): Double = {
    val times = scala.collection.mutable.ArrayBuffer.empty[Double]
    while (times.size < 3 || times.sum < MinPassSeconds) {
      val t0 = System.nanoTime()
      sink += pass()
      times += (System.nanoTime() - t0) / 1e9
    }
    Stats.median(times.toSeq)
  }

  def measure(r: Result, tweets: Seq[Tweet], system: LocalEmd, spec: TweetGen.Spec,
              t: Training.Trained, candidates: collection.Map[String, Reference.Candidate]): Unit = {
    val sample = tweets.take(EmbeddingTweets)
    if (system.deep) {
      val (dim, salt) = (system.dim, system.params.salt)
      val positions = sample.map(_.tokens.size).sum
      r("emd.TokenEmbedder.tokenEmbedding.ns_per_token") = medianPass { () =>
        var s = 0.0
        sample.foreach(tw => tw.tokens.indices.foreach { p =>
          s += TokenEmbedder.tokenEmbedding(dim, salt, spec.seed, tw, p)(0)
        })
        s
      } * 1e9 / positions
      val pooled = Reference.occurrences(sample, candidates.keys).map { case (tw, start, len) =>
        TokenEmbedder.phraseMean(dim, salt, spec.seed, tw, start, len)
      }.toIndexedSeq
      val pe = t.phraseEmbedder.get
      r("core.PhraseEmbedder.embed.ns_per_call") =
        (if (pooled.isEmpty) 0.0 else medianPass(() => pooled.map(x => pe.embed(x)(0)).sum) * 1e9 / pooled.size)
    } else {
      r("emd.TokenEmbedder.tokenEmbedding.ns_per_token") = 0.0
      r("core.PhraseEmbedder.embed.ns_per_call") = 0.0
    }

    val trie = CTrie.fromKeys(candidates.keys)
    val token = tweets.map(_.tokens.toIndexedSeq).toIndexedSeq
    val nTokens = token.map(_.size).sum
    r("core.CTrie.scan.tokens_per_s") = nTokens / medianPass(() => token.map(trie.scan(_).size.toDouble).sum)

    val features = candidates.toIndexedSeq.sortBy(_._1).map { case (k, c) =>
      EntityClassifier.features(CandidateRecord(k, c.count, c.mean)) }
    r("nn.MlpClassifier.predictProba.ns_per_call") =
      medianPass(() => features.map(t.classifier.mlp.predictProba).sum) * 1e9 / features.size
  }
}
