package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TweetGen
import repro.emd.{Aguilar, NpChunker}

/** The single-node reference agrees with the distributed pipeline on DevStream. */
class ReferenceSpec extends AnyFunSuite {

  private lazy val spark: SparkSession = Main.session()
  private val spec = TweetGen.DevStream
  private lazy val tweets = TweetGen.generateLocal(spec)
  private lazy val aguilar = Training.trainFor(spark, Aguilar, TweetGen.D5Mini)

  test("the bench trains the same models as Training.trainFor") {
    val ctx = new Context(spark, seed = 1L, seconds = 1, trace = false, new Result, System.nanoTime())
    val mine = ctx.train(Aguilar)
    assert(mine.nTrainingCandidates == aguilar.nTrainingCandidates)
    assert(mine.classifierValidationF1 == aguilar.classifierValidationF1)
    assert(mine.peValidationLoss == aguilar.peValidationLoss)
    val ref = Reference.batch(tweets, Aguilar, spec, aguilar.classifier, aguilar.phraseEmbedder)
    assert(ref.candidates.nonEmpty)
    ref.candidates.foreach { case (k, c) =>
      val rec = CandidateRecord(k, c.count, c.mean)
      assert(mine.classifier.score(rec) == aguilar.classifier.score(rec), k)
    }
    val x = Array.tabulate(Aguilar.dim)(i => math.sin(i.toDouble))
    assert(mine.phraseEmbedder.get.embed(x).sameElements(aguilar.phraseEmbedder.get.embed(x)))
  }

  test("the longest-match scan agrees with CTrie.scan") {
    val keys = Reference.detections(tweets, Aguilar, spec).map(_.key).distinct
    val trie = CTrie.fromKeys(keys)
    val refKeys = keys.map(Reference.keyTokens).toSet
    val maxLen = refKeys.map(_.length).max
    tweets.foreach { t =>
      val tokens = t.tokens.toIndexedSeq
      assert(Reference.scan(tokens, refKeys, maxLen) == trie.scan(tokens), tokens)
    }
  }

  test("batch reference equals Globalizer.run (deep system)") {
    val out = Globalizer.run(spark, spec, Aguilar, aguilar.classifier, aguilar.phraseEmbedder)
    val ref = Reference.batch(tweets, Aguilar, spec, aguilar.classifier, aguilar.phraseEmbedder)
    val got = Reference.spansOf(out.finalSpans)
    assert(Reference.diff(ref, out.scored, got, out.localEval, out.globalEval).isEmpty)
    assert(ref.globalEval.tp > 0 && ref.candidates.nonEmpty)
    // A single lost span or a changed count is caught.
    assert(Reference.diff(ref, out.scored, got - got.head, out.localEval, out.globalEval).nonEmpty)
    assert(Reference.diff(ref, out.scored, got, out.localEval.copy(fp = out.localEval.fp + 1), out.globalEval).nonEmpty)
    val bumped = out.scored.map { case (r, s) => (r, s + 1e-6) }
    assert(Reference.diff(ref, bumped, got, out.localEval, out.globalEval).nonEmpty)
  }

  test("batch reference equals Globalizer.run (syntactic embeddings)") {
    val chunker = Training.trainFor(spark, NpChunker, TweetGen.D5Mini)
    val out = Globalizer.run(spark, spec, NpChunker, chunker.classifier, None)
    val ref = Reference.batch(tweets, NpChunker, spec, chunker.classifier, None)
    assert(Reference.diff(ref, out.scored, Reference.spansOf(out.finalSpans), out.localEval, out.globalEval).isEmpty)
  }

  test("stream replay equals the micro-batch loop over the same ranges") {
    val nBatches = 3
    val (out, state) = StreamingGlobalizer.runBatched(
      spark, spec, Aguilar, aguilar.classifier, aguilar.phraseEmbedder, nBatches)
    val per = math.ceil(spec.nTweets.toDouble / nBatches).toInt
    val replay = new Reference.StreamReplay(Aguilar, spec, aguilar.classifier, aguilar.phraseEmbedder)
    val replayed = tweets.grouped(per).map(replay.next).reduce(_ ++ _)
    assert(replayed == Reference.spansOf(out))
    assert(replay.keys == state.keys)
    assert(replay.pools.keySet == state.pools.keySet)
    state.pools.foreach { case (k, p) => assert(replay.pools(k).count == p.count, k) }
  }
}
