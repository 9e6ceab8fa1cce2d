package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
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
  * An iteration ([[processBatch]]) is Local EMD on the batch, then the
  * batch is mined against the cumulative CTrie and every candidate is
  * classified under its updated global embedding. `processBatch` is the
  * only copy of that chain. It runs on the batch's RDD in two narrow jobs,
  * local detection and mining with pooling, whose per-partition results
  * the driver collects and merges; no step plans a query or caches
  * anything. It serves the driver-side loop [[runBatched]], the
  * `foreachBatch` sink of [[runStream]], the program's one Dataset
  * boundary, and the batch pipeline [[Globalizer.run]], which is one
  * iteration over the whole dataset on a fresh `State`.
  */
object StreamingGlobalizer {

  /** Mutable cross-batch state, held on the driver: candidate keys, their
    * pools, and each candidate's score under the classifier that last
    * scored it.
    */
  final class State {
    val keys: mutable.Set[String] = mutable.Set.empty
    val pools: mutable.TreeMap[String, GlobalPooling.Pool] = mutable.TreeMap.empty
    /** Scores of the candidates whose pools did not change since `scorer` scored them. */
    private val scores = mutable.HashMap.empty[String, Double]
    private var scorer: EntityClassifier = _

    /** Every candidate with its finished pool, sorted by key. */
    def records: Seq[CandidateRecord] =
      pools.toSeq.map { case (k, p) => CandidateRecord(k, p.count, p.mean) }

    /** The CandidateBase update of one iteration: register the batch's seed
      * candidates, mine the batch against the cumulative CTrie and merge the
      * batch's pools. Mining and pooling are one narrow job: each partition
      * scans its tweets and adds their mentions into per-key pools
      * ([[GlobalPooling.partitionPools]]), keeping each mention's span and
      * key; the driver merges the pools in partition order and destroys the
      * CTrie's broadcast. A merged candidate's score is dropped, for
      * [[scoreWith]] to recompute. Returns the batch's mentions in partition
      * order.
      */
    def absorb(batch: RDD[Tweet],
               localDets: Seq[Detection],
               spec: TweetGen.Spec,
               system: LocalEmd,
               phraseEmbedder: Option[PhraseEmbedder]): Seq[Detection] = {
      keys ++= Globalizer.seedKeys(localDets)
      val trie = batch.sparkContext.broadcast(CTrie.fromKeys(keys))
      val mine = MentionExtractor.miner(trie, system, spec.seed, phraseEmbedder)
      val parts =
        try batch.mapPartitions { tweets =>
          val spans = mutable.ArrayBuffer.empty[Detection]
          val mentions = tweets.flatMap(mine).map { m => spans += m.mention; m }
          val part = GlobalPooling.partitionPools(mentions)(_.mention.key, _.emb)
          Iterator.single((part, spans.toArray))
        }.collect()
        finally trie.destroy()
      val batchPools = GlobalPooling.merged(parts.map(_._1))
      GlobalPooling.mergeInto(pools, batchPools)
      scores --= batchPools.keys
      parts.toSeq.flatMap(_._2)
    }

    /** Scores every candidate under `clf`. Only candidates whose pool
      * changed since the last call are scored again, unless that call used
      * another classifier: a score is a function of (key, count, mean).
      */
    def scoreWith(clf: EntityClassifier): Unit = {
      if (clf ne scorer) { scores.clear(); scorer = clf }
      pools.foreach { case (k, p) =>
        if (!scores.contains(k)) scores(k) = clf.score(CandidateRecord(k, p.count, p.mean))
      }
    }

    /** A candidate's α/β/γ band, if [[scoreWith]] scored it. */
    def band(key: String): Option[Int] = scores.get(key).map(EntityClassifier.bandOf)

    /** Every candidate with its score, sorted by key; needs [[scoreWith]] first. */
    def scored: Seq[(CandidateRecord, Double)] = records.map(r => (r, scores(r.key)))
  }

  /** What one iteration returns, held on the driver, each in partition
    * order: the batch's local detections and gold spans, its mined
    * mentions, its final spans, and the iteration's local and global times.
    */
  final case class Iteration(detections: Seq[Detection],
                             gold: Seq[Metrics.Span],
                             mined: Seq[Detection],
                             spans: Seq[Metrics.Span],
                             timings: Globalizer.Timings)

  /** One framework iteration over a batch, in two Spark jobs: local
    * detection ([[Globalizer.localPhase]]), then the CandidateBase update
    * ([[State.absorb]]), after which the driver scores the candidates it
    * touched ([[State.scoreWith]]) and assembles the batch's output spans
    * ([[Globalizer.assembleOutput]]). Nothing stays cached or broadcast.
    * `chargeEmbeddingCost` adds the embedding-cost pass to local
    * detection, as a batch run does; a micro-batch skips it.
    */
  def processBatch(batch: RDD[Tweet],
                   spec: TweetGen.Spec,
                   system: LocalEmd,
                   clf: EntityClassifier,
                   phraseEmbedder: Option[PhraseEmbedder],
                   state: State,
                   chargeEmbeddingCost: Boolean = false): Iteration = {
    val t0 = System.nanoTime()
    val local = Globalizer.localPhase(batch, system, spec, chargeEmbeddingCost)
    val t1 = System.nanoTime()
    val mined = state.absorb(batch, local.dets, spec, system, phraseEmbedder)
    state.scoreWith(clf)
    val spans = Globalizer.assembleOutput(mined, local.dets, state.band(_))
    val t2 = System.nanoTime()
    Iteration(local.dets, local.gold, mined, spans, Globalizer.Timings((t1 - t0) / 1e9, (t2 - t1) / 1e9))
  }

  /** Drive a whole dataset through the framework in `nBatches` sequential
    * micro-batches of consecutive ids (driver loop; used by tests and the
    * streaming job). Returns the batches' spans in batch order, as one
    * local DataFrame, and the final state.
    */
  def runBatched(spark: SparkSession,
                 spec: TweetGen.Spec,
                 system: LocalEmd,
                 clf: EntityClassifier,
                 phraseEmbedder: Option[PhraseEmbedder],
                 nBatches: Int): (DataFrame, State) = {
    val state = new State
    val n = spec.nTweets.toLong
    val per = math.ceil(n.toDouble / nBatches).toLong
    val spans = (0 until nBatches).flatMap { b =>
      val batch = TweetGen.tweets(spark.sparkContext, spec, math.min(n, b * per), math.min(n, (b + 1) * per))
      processBatch(batch, spec, system, clf, phraseEmbedder, state).spans
    }
    (Metrics.spanFrame(spark, spans), state)
  }

  /** Structured Streaming execution: consume a stream of tweets (any
    * source), run one framework iteration per micro-batch via foreachBatch,
    * append each batch's spans to `collector` as a local DataFrame.
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
        val spans = processBatch(batch.rdd, spec, system, clf, phraseEmbedder, state).spans
        collector(batchId, Metrics.spanFrame(batch.sparkSession, spans))
      }
      .start()
  }
}
