package repro.core

import java.util.Locale
import org.scalatest.funsuite.AnyFunSuite
import repro.data.Vocab
import repro.util.Rng

class CTrieSpec extends AnyFunSuite {

  private def trie(keys: String*): CTrie = CTrie.fromKeys(keys)

  /** True iff the whole of `key` is a candidate of `t`: the scan of its
    * tokens is one span covering them all.
    */
  private def isCandidate(t: CTrie, key: String): Boolean = {
    val tokens = key.split(" ").toIndexedSeq
    t.scan(tokens) == Seq((0, tokens.length))
  }

  test("empty trie matches nothing") {
    assert(new CTrie().scan(IndexedSeq("a", "b")).isEmpty)
  }

  test("insert of empty sequence is a no-op") {
    // Blank keys register no candidate.
    assert(CTrie.fromKeys(Seq("", "   ")).scan(IndexedSeq("a", "", "b")).isEmpty)
    assert(trie("", "a").scan(IndexedSeq("", "a")) == Seq((1, 1)))
  }

  test("candidate keys are case-insensitive, and a repeated key is one candidate") {
    val t = trie("andy beshear", "Beta", "alpha gamma", "ALPHA", "Andy Beshear", "alpha")
    assert(isCandidate(t, "ANDY Beshear"))
    assert(isCandidate(t, "Andy beshear"))
    assert(!isCandidate(t, "andy"))
    Seq("alpha", "alpha gamma", "beta", "BETA").foreach(k => assert(isCandidate(t, k), k))
    assert(!isCandidate(t, "gamma"))
    // One candidate per key: a repeated key yields one span, not two.
    assert(t.scan(IndexedSeq("andy", "beshear", "beta")) == Seq((0, 2), (2, 1)))
  }

  test("prefix of a candidate is not itself a candidate") {
    val t = trie("new york city")
    assert(!isCandidate(t, "new york"))
    assert(isCandidate(t, "new york city"))
  }

  test("candidates with shared prefixes coexist") {
    val t = trie("new york", "new york city", "new jersey")
    assert(isCandidate(t, "new york"))
    assert(isCandidate(t, "new york city"))
    assert(isCandidate(t, "new jersey"))
    assert(!isCandidate(t, "new"))
  }

  test("scan finds a single unigram mention") {
    val t = trie("coronavirus")
    assert(t.scan(IndexedSeq("the", "coronavirus", "spreads")) == Seq((1, 1)))
  }

  test("scan is case-insensitive") {
    val t = trie("coronavirus")
    assert(t.scan(IndexedSeq("CORONAVIRUS", "hits", "Coronavirus")) == Seq((0, 1), (2, 1)))
  }

  test("case folding does not depend on the JVM default locale") {
    val saved = Locale.getDefault
    Locale.setDefault(Locale.forLanguageTag("tr")) // "I" lower-cases to dotless "ı" here
    try {
      assert(Detection.keyOf("IRAN") == Detection.keyOf("iran"))
      assert(Detection.of(Tweet(1L, 0, Seq("visit", "IRAN"), Seq.empty, Seq.empty), 1, 1).key == "iran")
      assert(Vocab.keyOf(Seq("IRAN")) == "iran")
      assert(trie("iran").scan(IndexedSeq("visit", "IRAN")) == Seq((1, 1)))
    } finally Locale.setDefault(saved)
  }

  test("scan prefers the longest match (partial-extraction correction)") {
    val t = trie("andy", "andy beshear")
    assert(t.scan(IndexedSeq("gov", "Andy", "Beshear", "said")) == Seq((1, 2)))
  }

  test("scan falls back to the shorter candidate when the longer path dead-ends") {
    val t = trie("andy", "andy beshear")
    assert(t.scan(IndexedSeq("gov", "Andy", "Johnson", "said")) == Seq((1, 1)))
  }

  test("scan backtracks to the last terminal on a non-terminal longer path") {
    // Path "new york city" exists; "new york" is the only terminal prefix.
    val extended = trie("new york", "new york city council")
    assert(extended.scan(IndexedSeq("in", "new", "york", "city", "today")) == Seq((1, 2)))
  }

  test("scan restarts after a recorded match (non-overlapping)") {
    val t = trie("a b", "b c")
    // Greedy left-to-right: "a b" consumes b, so "b c" cannot also match.
    assert(t.scan(IndexedSeq("a", "b", "c")) == Seq((0, 2)))
  }

  test("scan advances one token when no match was recorded") {
    val t = trie("b c")
    assert(t.scan(IndexedSeq("a", "b", "c")) == Seq((1, 2)))
  }

  test("scan finds adjacent mentions") {
    val t = trie("trump", "us")
    assert(t.scan(IndexedSeq("trump", "us", "counties")) == Seq((0, 1), (1, 1)))
  }

  test("scan of an empty token sequence yields nothing") {
    assert(trie("x").scan(IndexedSeq.empty) == Seq.empty)
  }

  test("scan with mention at the very end") {
    val t = trie("italy")
    assert(t.scan(IndexedSeq("cases", "in", "ITALY")) == Seq((2, 1)))
  }

  test("scan of a full-sentence candidate") {
    val t = trie("a b c")
    assert(t.scan(IndexedSeq("a", "b", "c")) == Seq((0, 3)))
  }

  test("repeated mentions of the same candidate are all found") {
    val t = trie("italy")
    assert(t.scan(IndexedSeq("italy", "vs", "italy", "and", "Italy")) == Seq((0, 1), (2, 1), (4, 1)))
  }

  test("fromKeys ignores extra whitespace") {
    val t = trie("  andy   beshear ")
    assert(isCandidate(t, "andy beshear"))
  }

  test("serialized trie scans identically (broadcast-safe)") {
    val keys = Seq("andy beshear", "coronavirus", "new york city")
    val t = CTrie.fromKeys(keys)
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(t)
    val t2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[CTrie]
    val sent = IndexedSeq("Andy", "Beshear", "on", "coronavirus", "in", "New", "York", "City")
    assert(t2.scan(sent) == t.scan(sent))
    keys.foreach(k => assert(isCandidate(t2, k), k))
    assert(!isCandidate(t2, "new york"))
  }

  // ------------------------------------------------- reference cross-check

  /** Naive reference: at each i, try the longest candidate starting at i. */
  private def referenceScan(keys: Set[Seq[String]], tokens: IndexedSeq[String]): Seq[(Int, Int)] = {
    val maxLen = if (keys.isEmpty) 0 else keys.map(_.length).max
    val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var i = 0
    while (i < tokens.length) {
      val best = (maxLen.min(tokens.length - i) to 1 by -1).find { l =>
        // The trie walk only extends while a path exists; a candidate at
        // length l is reachable iff every prefix of it lies on a trie path,
        // which is always true for the candidate itself.
        keys.contains(tokens.slice(i, i + l).map(_.toLowerCase))
      }
      best match {
        case Some(l) => out += ((i, l)); i += l
        case None    => i += 1
      }
    }
    out.toSeq
  }

  test("scan agrees with the naive longest-match reference on random inputs") {
    val vocab = Vector("a", "b", "c", "d", "e")
    (0 until 300).foreach { round =>
      val nKeys = 1 + Rng.int(6, 1000L, round.toLong)
      val keys = (0 until nKeys).map { k =>
        val len = 1 + Rng.int(3, 1001L, round.toLong, k.toLong)
        (0 until len).map(p => vocab(Rng.int(vocab.size, 1002L, round.toLong, k.toLong, p.toLong)))
      }.toSet
      val t = CTrie.fromKeys(keys.map(_.mkString(" ")))
      val sentLen = Rng.int(15, 1003L, round.toLong)
      val sent = IndexedSeq.tabulate(sentLen)(p => vocab(Rng.int(vocab.size, 1004L, round.toLong, p.toLong)))
      val got = t.scan(sent)
      val exp = referenceScan(keys.map(_.map(_.toLowerCase)), sent)
      assert(got == exp, s"round=$round keys=$keys sent=$sent got=$got exp=$exp")
    }
  }
}
