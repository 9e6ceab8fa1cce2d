package repro.data

import java.util.Locale
import repro.core.Detection
import repro.util.Rng

/** Synthetic vocabulary for tweet generation.
  *
  * Words are pronounceable syllable strings. Three disjoint namespaces keep
  * candidate identities unambiguous by construction:
  *   - filler words  — stopwords plus "fa…" words,
  *   - entity tokens — flavor tokens "ne…" plus a unique last token "ve…"
  *     that embeds the entity id (so entity keys never collide),
  *   - lure tokens   — flavor plus a unique last token "zo…".
  *
  * A fraction of multi-token entities deliberately reuse a *filler* word as
  * their first token ("collision tokens"): the same token type then occurs
  * both inside entity mentions and as plain text, which is exactly the
  * ambiguity that hurts per-token global pooling (the HIRE-NER baseline)
  * but not candidate-level pooling (EMD Globalizer).
  */
object Vocab {

  private val digits = Array(
    "ba", "be", "bi", "bo", "da", "de", "di", "do",
    "ka", "ke", "ki", "ko", "la", "le", "li", "lo")

  val stopwords: Vector[String] = Vector(
    "the", "to", "a", "of", "in", "and", "is", "on", "for", "with",
    "at", "it", "this", "that", "was", "are", "be", "have", "not", "but")

  /** Base-16 syllable encoding of a non-negative id (at least two digits). */
  def digitsOf(id: Long): String = {
    require(id >= 0, s"negative id $id")
    var n = id
    val sb = new StringBuilder
    while (n > 0) { sb.insert(0, digits((n % 16).toInt)); n /= 16 }
    while (sb.length < 4) sb.insert(0, digits(0)) // pad: "baba…"
    sb.toString
  }

  def capitalize(w: String): String =
    if (w.isEmpty) w else w.substring(0, 1).toUpperCase(Locale.ROOT) + w.substring(1)

  /** Number of distinct filler words available. */
  val nFiller: Int = 400

  /** The i-th filler word (stopwords first, then synthetic "fa…" words). */
  def fillerWord(i: Int): String = {
    require(i >= 0 && i < nFiller, s"filler index $i out of [0,$nFiller)")
    if (i < stopwords.length) stopwords(i) else "fa" + digitsOf((i - stopwords.length).toLong)
  }

  /** A non-unique "flavor" token used as the leading token(s) of names. */
  private def flavorToken(seed: Long, salt: Long): String =
    "ne" + digitsOf(Rng.hash(seed, salt) & 0xfff)

  /** Canonical (title-case) token sequence of an entity. Deterministic and
    * unique per (datasetSeed, entityId): the last token embeds the id.
    */
  def entityTokens(datasetSeed: Long, entityId: Long): IndexedSeq[String] = {
    val u = Rng.unif(datasetSeed, 101L, entityId)
    val nTok = if (u < 0.50) 1 else if (u < 0.88) 2 else 3
    // Bijective in (datasetSeed, entityId): dataset seeds are small ints, so
    // folding them into the high digits keeps ids unique per pool AND
    // distinct across datasets' pools.
    val uniqueLast = capitalize("ve" + digitsOf((datasetSeed & 0xffL) * 10_000_000L + entityId))
    if (nTok == 1) IndexedSeq(uniqueLast)
    else {
      val lead = (0 until nTok - 1).map { p =>
        // Collision token: the first token of some multi-token entities is a
        // capitalized filler word (see scaladoc).
        if (p == 0 && Rng.unif(datasetSeed, 102L, entityId) < 0.30)
          capitalize(fillerWord(Rng.int(nFiller, datasetSeed, 103L, entityId)))
        else capitalize(flavorToken(datasetSeed, Rng.hash(104L, entityId, p.toLong)))
      }
      (lead :+ uniqueLast).toIndexedSeq
    }
  }

  /** Canonical (title-case) token sequence of a lure phrase, unique per id. */
  def lureTokens(datasetSeed: Long, lureId: Long): IndexedSeq[String] = {
    val u = Rng.unif(datasetSeed, 201L, lureId)
    val uniqueLast = capitalize("zo" + digitsOf((datasetSeed & 0xffL) * 10_000_000L + lureId))
    if (u < 0.60) IndexedSeq(uniqueLast)
    else {
      val first =
        if (Rng.unif(datasetSeed, 202L, lureId) < 0.40)
          capitalize(fillerWord(Rng.int(nFiller, datasetSeed, 203L, lureId)))
        else capitalize(flavorToken(datasetSeed, Rng.hash(204L, lureId)))
      IndexedSeq(first, uniqueLast)
    }
  }

  /** Lower-cased candidate key of a token sequence. */
  def keyOf(tokens: Seq[String]): String = Detection.keyOf(tokens.mkString(" "))
}
