package repro.core

/** Shared data model for the reproduction.
  *
  * A "tweet" here is one tweet-sentence, the unit the paper processes
  * (TweetBase is keyed by (tweet ID, sentence ID)). Tokens are pre-split;
  * gold spans and lure spans are token ranges.
  */

/** A ground-truth entity mention: tokens [start, start+len) refer to `entityId`. */
case class GoldSpan(start: Int, len: Int, entityId: Long)

/** A non-entity phrase that looks entity-like (capitalized noun phrase etc.);
  * simulated Local EMD systems emit these as false-positive candidates.
  */
case class LureSpan(start: Int, len: Int, lureId: Long)

/** One tweet-sentence of a dataset stream. */
case class Tweet(tweetId: Long,
                 sentId: Int,
                 tokens: Seq[String],
                 gold: Seq[GoldSpan],
                 lures: Seq[LureSpan]) {
  def surface(start: Int, len: Int): String = tokens.slice(start, start + len).mkString(" ")
}

/** A span emitted by a Local EMD system for one tweet-sentence. */
case class Detection(tweetId: Long, sentId: Int, start: Int, len: Int, surface: String) {
  /** Case-insensitive candidate key, the CTrie/CandidateBase identity. */
  def key: String = Detection.keyOf(surface)
  def span: Metrics.Span = (tweetId, sentId, start, len)
}

object Detection {
  /** The one case-folding rule, for candidate keys, CTrie tokens, vocabulary
    * keys and HIRE-NER token types alike: no key depends on the JVM locale.
    */
  def keyOf(surface: String): String = surface.toLowerCase(java.util.Locale.ROOT)
}

/** A candidate's global record: pooled embedding over all its mentions. */
case class CandidateRecord(key: String, mentionCount: Long, pooled: Array[Double])
