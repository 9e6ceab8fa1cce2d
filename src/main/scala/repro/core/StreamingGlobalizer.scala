package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.data.TweetGen
import repro.emd.LocalEmd

import scala.collection.mutable

/** Streaming execution of EMD Globalizer (paper Sec. III: "continuous
  * execution of a tweet stream over multiple iterations", each iteration a
  * batch of incoming tweets).
  *
  * State held across micro-batches (the incremental CandidateBase):
  *   - the set of discovered candidate keys (backing the CTrie),
  *   - per-candidate running (count, sum) pools, merged batch by batch —
  *     the "incrementally updated global embedding" of Sec. V.
  *
  * An iteration is Local EMD on the batch followed by [[globalPhase]]: the
  * batch is mined against the cumulative CTrie and every candidate is
  * classified under its updated global embedding. `globalPhase` is the only
  * copy of that chain. [[processBatch]] runs it for the driver-side loop
  * [[runBatched]] and for the Structured Streaming `foreachBatch` sink of
  * [[runStream]]; the batch pipeline [[Globalizer.run]] is one iteration
  * over the whole dataset on a fresh `State`.
  */
object StreamingGlobalizer {

  /** Mutable cross-batch state (driver-held; candidate counts are small). */
  final class State {
    val keys: mutable.Set[String] = mutable.Set.empty
    val pools: mutable.TreeMap[String, GlobalPooling.Pool] = mutable.TreeMap.empty

    /** Every candidate with its finished pool, sorted by key. */
    def records: Seq[CandidateRecord] =
      pools.toSeq.map { case (k, p) => CandidateRecord(k, p.count, p.mean) }

    /** The CandidateBase update of one iteration: register the batch's seed
      * candidates, mine the batch against the cumulative CTrie and merge the
      * batch's pools. Returns the batch's mined mentions, cached.
      */
    def absorb(batch: Dataset[Tweet],
               localDets: Dataset[Detection],
               spec: TweetGen.Spec,
               system: LocalEmd,
               phraseEmbedder: Option[PhraseEmbedder]): Dataset[MentionEmb] = {
      keys ++= Globalizer.seedKeys(localDets)
      val trie = batch.sparkSession.sparkContext.broadcast(CTrie.fromKeys(keys))
      val mentions = MentionExtractor.mine(batch, trie, system, spec.seed, phraseEmbedder)
        .persist(StorageLevel.MEMORY_AND_DISK)
      // Pooling's one job also fills the mentions' cache.
      GlobalPooling.mergeInto(pools, GlobalPooling.pools(mentions)(_.key, _.emb))
      mentions
    }
  }

  /** What the global half of an iteration returns: the batch's mined
    * mentions and final spans (both cached), and every candidate of the
    * state with its classifier score.
    */
  final case class GlobalOutput(mentions: Dataset[MentionEmb],
                                scored: Seq[(CandidateRecord, Double)],
                                spans: DataFrame)

  /** The global half of one iteration over `batch`, given its local
    * detections: update `state` with the batch ([[State.absorb]]), score
    * every candidate and assemble the batch's output spans.
    */
  def globalPhase(batch: Dataset[Tweet],
                  localDets: Dataset[Detection],
                  spec: TweetGen.Spec,
                  system: LocalEmd,
                  clf: EntityClassifier,
                  phraseEmbedder: Option[PhraseEmbedder],
                  state: State): GlobalOutput = {
    val mentions = state.absorb(batch, localDets, spec, system, phraseEmbedder)
    val scored = state.records.map(r => (r, clf.score(r)))
    val bands = scored.map { case (r, s) => r.key -> EntityClassifier.bandOf(s) }.toMap
    val spans = Globalizer.fill(Globalizer.assembleOutput(mentions, localDets, bands).cache())
    GlobalOutput(mentions, scored, spans)
  }

  /** One framework iteration over a micro-batch; returns the batch's final
    * entity-mention spans (tweetId, sentId, start, len).
    */
  def processBatch(batch: Dataset[Tweet],
                   spec: TweetGen.Spec,
                   system: LocalEmd,
                   clf: EntityClassifier,
                   phraseEmbedder: Option[PhraseEmbedder],
                   state: State): DataFrame = {
    val localDets = Globalizer.localPhase(batch, system, spec, chargeEmbeddingCost = false)
    val out = globalPhase(batch, localDets, spec, system, clf, phraseEmbedder, state)
    out.mentions.unpersist()
    localDets.unpersist()
    out.spans
  }

  /** Drive a whole dataset through the framework in `nBatches` sequential
    * micro-batches (driver loop; used by tests and the streaming bench).
    * Returns the union of per-batch outputs, cached (the per-batch spans
    * are released), and the final state. The micro-batches hold disjoint
    * tweets, so the union is as distinct as each batch's output.
    */
  def runBatched(spark: SparkSession,
                 spec: TweetGen.Spec,
                 system: LocalEmd,
                 clf: EntityClassifier,
                 phraseEmbedder: Option[PhraseEmbedder],
                 nBatches: Int): (DataFrame, State) = {
    import spark.implicits._
    val state = new State
    val per = math.ceil(spec.nTweets.toDouble / nBatches).toInt
    val outs = (0 until nBatches).map { b =>
      val lo = b.toLong * per
      val hi = math.min(spec.nTweets.toLong, lo + per)
      val batch = spark.range(lo, hi).as[Long].map(id => TweetGen.makeTweet(spec, id))
      processBatch(batch, spec, system, clf, phraseEmbedder, state)
    }
    val out = Globalizer.fill(outs.reduce(_ union _).cache())
    outs.foreach(_.unpersist())
    (out, state)
  }

  /** Structured Streaming execution: consume a stream of tweets (any
    * source), run one framework iteration per micro-batch via foreachBatch,
    * append outputs to `collector`.
    */
  def runStream(tweetStream: Dataset[Tweet],
                spec: TweetGen.Spec,
                system: LocalEmd,
                clf: EntityClassifier,
                phraseEmbedder: Option[PhraseEmbedder],
                state: State,
                collector: (Long, DataFrame) => Unit): org.apache.spark.sql.streaming.StreamingQuery = {
    tweetStream.writeStream
      .outputMode("append")
      .foreachBatch { (batch: Dataset[Tweet], batchId: Long) =>
        collector(batchId, processBatch(batch, spec, system, clf, phraseEmbedder, state))
      }
      .start()
  }
}
