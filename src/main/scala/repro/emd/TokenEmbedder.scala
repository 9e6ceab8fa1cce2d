package repro.emd

import repro.core.Tweet
import repro.util.Rng

/** Deterministic synthetic "entity-aware" token embeddings.
  *
  * Stands in for the penultimate-layer contextual embeddings of the deep
  * Local EMD systems (Aguilar et al., BERTweet). The essential geometry the
  * Global EMD phase relies on is preserved:
  *
  *   - a token occurrence in entity context is drawn around an entity-class
  *     mean, otherwise around a non-entity mean, with unit per-coordinate
  *     noise; the means are separated so a *single* mention is only weakly
  *     classifiable (d' ≈ 1.7) while pooling f mentions sharpens the signal
  *     by √f — reproducing the paper's frequency-dependent classifier
  *     behaviour (Fig. 7);
  *   - ~10% of entity mentions occur in "hard" contexts (embedding drawn
  *     from the class midpoint), modelling context the DNN cannot resolve;
  *   - ~12% of lures are "entity-like" (their occurrences usually draw from
  *     the entity mean), modelling plausible false positives.
  *
  * Everything is a pure function of (salt, tweet, position, coordinate), so
  * "storing the embeddings in TweetBase" and recomputing them are
  * indistinguishable; we recompute to avoid materializing dense vectors for
  * every token of the stream.
  */
object TokenEmbedder {

  /** Per-coordinate class-mean scale giving ||μe − μn|| ≈ 1.7 (σ = 1). */
  def meanScale(dim: Int): Double = 1.7 / math.sqrt(2.0 * dim)

  /** Context class of a token position. */
  val NonEntity = 0
  val Entity = 1
  val Midpoint = 2

  private val HardMentionRate = 0.10
  private val EntityLikeLureRate = 0.12
  private val EntityLikeLureDrawRate = 0.70

  /** True iff this lure id behaves entity-like (a systematic false positive). */
  def entityLikeLure(datasetSeed: Long, lureId: Long): Boolean =
    Rng.unif(datasetSeed, 900L, lureId) < EntityLikeLureRate

  /** Context class of position `pos` in `tweet` under embedding-space `salt`. */
  def posClass(tweet: Tweet, pos: Int, salt: Long, datasetSeed: Long): Int = {
    tweet.gold.find(g => pos >= g.start && pos < g.start + g.len) match {
      case Some(g) =>
        val hard = Rng.unif(salt, 901L, tweet.tweetId, g.start.toLong) < HardMentionRate
        if (hard) Midpoint else Entity
      case None =>
        tweet.lures.find(l => pos >= l.start && pos < l.start + l.len) match {
          case Some(l) if entityLikeLure(datasetSeed, l.lureId) =>
            if (Rng.unif(salt, 902L, tweet.tweetId, l.start.toLong) < EntityLikeLureDrawRate) Entity
            else NonEntity
          case _ => NonEntity
        }
    }
  }

  // Class means are pure in (dim, salt, class); memoize per executor JVM —
  // they sit on the hot path of every token embedding.
  private val meanCache =
    new java.util.concurrent.ConcurrentHashMap[(Int, Long, Boolean), Array[Double]]()

  /** Class mean vector (deterministic per (salt, class)). */
  def classMean(dim: Int, salt: Long, entity: Boolean): Array[Double] =
    meanCache.computeIfAbsent((dim, salt, entity), { _ =>
      val s = meanScale(dim)
      val tag = if (entity) 1L else 2L
      Array.tabulate(dim)(i => s * Rng.gaussian(salt, 910L, tag, i.toLong))
    })

  /** Embedding of the token at `pos` of `tweet`. */
  def tokenEmbedding(dim: Int, salt: Long, datasetSeed: Long, tweet: Tweet, pos: Int): Array[Double] = {
    val cls = posClass(tweet, pos, salt, datasetSeed)
    val muE = classMean(dim, salt, entity = true)
    val muN = classMean(dim, salt, entity = false)
    Array.tabulate(dim) { i =>
      val mu = cls match {
        case Entity    => muE(i)
        case NonEntity => muN(i)
        case _         => 0.5 * (muE(i) + muN(i))
      }
      mu + Rng.gaussian(salt, tweet.tweetId, pos.toLong, i.toLong)
    }
  }

  /** Mean-pooled embedding of the phrase at [start, start+len) — Eq. (1). */
  def phraseMean(dim: Int, salt: Long, datasetSeed: Long, tweet: Tweet, start: Int, len: Int): Array[Double] = {
    val out = new Array[Double](dim)
    var p = start
    while (p < start + len) {
      val e = tokenEmbedding(dim, salt, datasetSeed, tweet, p)
      var i = 0
      while (i < dim) { out(i) += e(i); i += 1 }
      p += 1
    }
    var i = 0
    while (i < dim) { out(i) /= len; i += 1 }
    out
  }
}
