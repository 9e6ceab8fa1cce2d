package repro.core

/** The 6-dimensional syntactic (capitalization-scenario) embedding used for
  * non-deep Local EMD systems (paper Sec. V-B-1, following TwiCS).
  *
  * A mention occurrence is assigned exactly one of six scenarios; the
  * candidate's global embedding is then the pooled distribution over the
  * scenarios of all its mentions.
  */
object SyntacticEmbedding {

  val Dim = 6

  /** Scenario ids (1-based as in the paper). */
  val ProperCap = 1
  val StartOfSentenceCap = 2
  val SubstringCap = 3
  val FullCap = 4
  val NoCap = 5
  val NonDiscriminative = 6

  // Token capitalization tests, shared with the Local EMD simulators.
  private def hasLetter(t: String): Boolean = t.exists(_.isLetter)
  private[repro] def allUpper(t: String): Boolean = hasLetter(t) && t.forall(c => !c.isLetter || c.isUpper)
  private[repro] def allLower(t: String): Boolean = hasLetter(t) && t.forall(c => !c.isLetter || c.isLower)
  private[repro] def firstCap(t: String): Boolean = t.nonEmpty && t.head.isUpper

  /** True if the whole sentence is syntactically non-discriminative: all
    * upper-case, all lower-case, or every word first-char capitalized.
    */
  def nonDiscriminativeSentence(tokens: Seq[String]): Boolean = {
    val lettered = tokens.filter(hasLetter)
    if (lettered.isEmpty) true
    else lettered.forall(allUpper) || lettered.forall(allLower) || lettered.forall(firstCap)
  }

  /** Scenario of the mention at tokens [start, start+len) of the sentence. */
  def scenario(tokens: Seq[String], start: Int, len: Int): Int = {
    require(start >= 0 && len >= 1 && start + len <= tokens.length,
      s"span ($start,$len) out of sentence of ${tokens.length} tokens")
    val mention = tokens.slice(start, start + len)
    if (nonDiscriminativeSentence(tokens)) NonDiscriminative
    else if (mention.forall(allUpper)) FullCap
    else if (len == 1 && start == 0 && firstCap(mention.head)) StartOfSentenceCap
    else if (mention.forall(firstCap)) ProperCap
    else if (len > 1 && mention.exists(firstCap)) SubstringCap
    else NoCap
  }

  /** One-hot embedding of the mention's scenario. */
  def embed(tokens: Seq[String], start: Int, len: Int): Array[Double] = {
    val v = new Array[Double](Dim)
    v(scenario(tokens, start, len) - 1) = 1.0
    v
  }
}
