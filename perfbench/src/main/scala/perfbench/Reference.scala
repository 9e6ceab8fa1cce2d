package perfbench

import repro.core._
import repro.data.TweetGen
import repro.emd.{LocalEmd, TokenEmbedder}

import scala.collection.mutable

/** Single-node reference of the Global EMD pipeline, built from
  * `TweetGen.generateLocal` tweets and the same trained models as the run
  * under test. It shares only the per-tweet simulators and models with the
  * program (Local EMD draws, token embeddings, the Phrase Embedder, the
  * classifier); the longest-match scan, pooling, banding, output assembly
  * and evaluation are its own plain loops, so a distributed run is checked
  * against an independent composition.
  */
object Reference {

  /** (tweetId, sentId, start, len) — the span identity of evaluation. */
  type Span = (Long, Int, Int, Int)

  final case class Candidate(count: Long, sum: Array[Double]) {
    def mean: Array[Double] = sum.map(_ / count)
  }

  final case class BatchOut(candidates: Map[String, Candidate],
                            scores: Map[String, Double],
                            spans: Set[Span],
                            localEval: EvalCounts,
                            globalEval: EvalCounts)

  final case class Mined(span: Span, key: String, emb: Array[Double])

  def keyTokens(key: String): Vector[String] = key.split(" ").toVector

  /** Longest-match scan: at each position take the longest candidate that
    * matches case-insensitively and jump past it, else move one token on.
    */
  def scan(tokens: IndexedSeq[String], keys: Set[Vector[String]], maxLen: Int): Seq[(Int, Int)] = {
    val lower = tokens.map(_.toLowerCase)
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    var i = 0
    while (i < lower.length) {
      val len = (math.min(maxLen, lower.length - i) to 1 by -1)
        .find(l => keys.contains(lower.slice(i, i + l).toVector))
      len match {
        case Some(l) => out += ((i, l)); i += l
        case None    => i += 1
      }
    }
    out.toSeq
  }

  def detections(tweets: Seq[Tweet], system: LocalEmd, spec: TweetGen.Spec): Seq[Detection] =
    tweets.flatMap(t => system.detect(t, spec.hardness, spec.seed))

  /** Every (tweet, start, len) occurrence of the candidates in `tweets`. */
  def occurrences(tweets: Seq[Tweet], candidateKeys: Iterable[String]): Seq[(Tweet, Int, Int)] = {
    val keys = candidateKeys.map(keyTokens).toSet
    val maxLen = if (keys.isEmpty) 0 else keys.map(_.length).max
    tweets.flatMap(t => scan(t.tokens.toIndexedSeq, keys, maxLen).map { case (s, l) => (t, s, l) })
  }

  /** Mentions of every candidate in `tweets`, with their local embeddings. */
  def mine(tweets: Seq[Tweet], candidateKeys: Iterable[String], system: LocalEmd,
           spec: TweetGen.Spec, pe: Option[PhraseEmbedder]): Seq[Mined] =
    occurrences(tweets, candidateKeys).map { case (t, start, len) =>
      val emb =
        if (system.deep) {
          val pooled = TokenEmbedder.phraseMean(system.dim, system.params.salt, spec.seed, t, start, len)
          pe.get.embed(pooled)
        } else SyntacticEmbedding.embed(t.tokens, start, len)
      Mined((t.tweetId, t.sentId, start, len), t.tokens.slice(start, start + len).mkString(" ").toLowerCase, emb)
    }

  /** Add mentions into running (count, sum) pools, in mention order. */
  def pool(into: mutable.Map[String, Candidate], mentions: Seq[Mined]): Unit =
    mentions.foreach { m =>
      into.get(m.key) match {
        case None => into(m.key) = Candidate(1, m.emb.clone())
        case Some(c) =>
          val s = c.sum.clone()
          var i = 0
          while (i < s.length) { s(i) += m.emb(i); i += 1 }
          into(m.key) = Candidate(c.count + 1, s)
      }
    }

  def scoreAll(candidates: collection.Map[String, Candidate], clf: EntityClassifier): Map[String, Double] =
    candidates.map { case (k, c) => k -> clf.score(CandidateRecord(k, c.count, c.mean)) }.toMap

  /** α → every mined mention; γ → Local EMD's own detections; β → nothing. */
  def assemble(mentions: Seq[Mined], dets: Seq[Detection], scores: Map[String, Double]): Set[Span] = {
    def band(k: String): Int = scores.get(k).map(EntityClassifier.bandOf).getOrElse(EntityClassifier.Beta)
    mentions.filter(m => band(m.key) == EntityClassifier.Alpha).map(_.span).toSet ++
      dets.filter(d => band(d.key) == EntityClassifier.Gamma).map(d => (d.tweetId, d.sentId, d.start, d.len)).toSet
  }

  /** Spans of a span DataFrame (`Metrics.SpanCols`), collected to the driver. */
  def spansOf(df: org.apache.spark.sql.DataFrame): Set[Span] =
    df.select(Metrics.SpanCols.map(org.apache.spark.sql.functions.col): _*).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3))).toSet

  def goldSpans(tweets: Seq[Tweet]): Set[Span] =
    tweets.flatMap(t => t.gold.map(g => (t.tweetId, t.sentId, g.start, g.len))).toSet

  def evaluate(predicted: Set[Span], gold: Set[Span]): EvalCounts = {
    val tp = predicted.count(gold.contains).toLong
    EvalCounts(tp, predicted.size - tp, gold.size - tp)
  }

  /** The batch pipeline (`Globalizer.run`) over a whole dataset. */
  def batch(tweets: Seq[Tweet], system: LocalEmd, spec: TweetGen.Spec,
            clf: EntityClassifier, pe: Option[PhraseEmbedder]): BatchOut = {
    val dets = detections(tweets, system, spec)
    val mentions = mine(tweets, dets.map(_.key).distinct, system, spec, pe)
    val pools = mutable.Map.empty[String, Candidate]
    pool(pools, mentions)
    val scores = scoreAll(pools, clf)
    val spans = assemble(mentions, dets, scores)
    val gold = goldSpans(tweets)
    val localSpans = dets.map(d => (d.tweetId, d.sentId, d.start, d.len)).toSet
    BatchOut(pools.toMap, scores, spans, evaluate(localSpans, gold), evaluate(spans, gold))
  }

  /** Replays micro-batches in order against one growing candidate state, as
    * `StreamingGlobalizer.processBatch` does; returns each batch's spans.
    */
  final class StreamReplay(system: LocalEmd, spec: TweetGen.Spec,
                           clf: EntityClassifier, pe: Option[PhraseEmbedder]) {
    val keys: mutable.Set[String] = mutable.Set.empty
    val pools: mutable.Map[String, Candidate] = mutable.Map.empty

    def next(batch: Seq[Tweet]): Set[Span] = {
      val dets = detections(batch, system, spec)
      keys ++= dets.map(_.key)
      val mentions = mine(batch, keys, system, spec, pe)
      pool(pools, mentions)
      assemble(mentions, dets, scoreAll(pools, clf))
    }
  }

  // ---------------------------------------------------------------- checks

  /** Relative tolerance for values that differ only by summation order. */
  val Tolerance = 1e-9

  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= Tolerance * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Differences between a distributed batch run and the reference; empty when they agree. */
  def diff(ref: BatchOut, scored: Seq[(CandidateRecord, Double)], spans: Set[Span],
           localEval: EvalCounts, globalEval: EvalCounts): Seq[String] = {
    val got = scored.map { case (r, s) => r.key -> (r, s) }.toMap
    val problems = mutable.ArrayBuffer.empty[String]
    if (got.keySet != ref.candidates.keySet)
      problems += s"candidate keys differ: ${(got.keySet diff ref.candidates.keySet).size} extra, " +
        s"${(ref.candidates.keySet diff got.keySet).size} missing"
    val badPools = ref.candidates.count { case (k, c) =>
      got.get(k).exists { case (r, s) =>
        r.mentionCount != c.count || !r.pooled.corresponds(c.mean)(close) || !close(s, ref.scores(k))
      }
    }
    if (badPools > 0) problems += s"$badPools candidates differ in count, pooled embedding or score"
    if (spans != ref.spans)
      problems += s"output spans differ: ${(spans diff ref.spans).size} extra, ${(ref.spans diff spans).size} missing"
    if (localEval != ref.localEval) problems += s"local eval $localEval != reference ${ref.localEval}"
    if (globalEval != ref.globalEval) problems += s"global eval $globalEval != reference ${ref.globalEval}"
    problems.toSeq
  }
}
