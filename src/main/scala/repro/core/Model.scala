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

/** A candidate mention: a span of one tweet-sentence and its
  * case-insensitive candidate key, the CTrie/CandidateBase identity. Local
  * EMD emits detections and occurrence mining emits mined mentions; both
  * are made by [[Detection.of]].
  */
case class Detection(tweetId: Long, sentId: Int, start: Int, len: Int, key: String) {
  def span: Metrics.Span = (tweetId, sentId, start, len)
}

object Detection {
  /** The one case-folding rule, for candidate keys, CTrie tokens, vocabulary
    * keys and HIRE-NER token types alike: no key depends on the JVM locale.
    */
  def keyOf(surface: String): String = surface.toLowerCase(java.util.Locale.ROOT)

  /** The mention at tokens [start, start+len) of `tweet`, keyed by its surface. */
  def of(tweet: Tweet, start: Int, len: Int): Detection =
    Detection(tweet.tweetId, tweet.sentId, start, len, keyOf(tweet.surface(start, len)))
}

/** A candidate's global record: pooled embedding over all its mentions. */
case class CandidateRecord(key: String, mentionCount: Long, pooled: Array[Double])
