package repro.core

import java.util.Locale
import org.scalatest.funsuite.AnyFunSuite
import repro.data.Vocab
import repro.util.Rng

class CTrieSpec extends AnyFunSuite {

  private def trie(keys: String*): CTrie = CTrie.fromKeys(keys)

  test("empty trie has size 0 and matches nothing") {
    val t = new CTrie
    assert(t.size == 0)
    assert(t.scan(IndexedSeq("a", "b")).isEmpty)
  }

  test("insert returns true for new, false for duplicate") {
    val t = new CTrie
    assert(t.insert(Seq("Andy", "Beshear")))
    assert(!t.insert(Seq("andy", "beshear"))) // case-insensitive duplicate
    assert(t.size == 1)
  }

  test("insert of empty sequence is a no-op") {
    val t = new CTrie
    assert(!t.insert(Seq.empty))
    assert(t.size == 0)
  }

  test("contains is case-insensitive") {
    val t = trie("andy beshear")
    assert(t.contains(Seq("ANDY", "Beshear")))
    assert(t.containsString("Andy beshear"))
    assert(!t.contains(Seq("andy")))
  }

  test("prefix of a candidate is not itself a candidate") {
    val t = trie("new york city")
    assert(!t.containsString("new york"))
    assert(t.containsString("new york city"))
  }

  test("candidates with shared prefixes coexist") {
    val t = trie("new york", "new york city", "new jersey")
    assert(t.size == 3)
    assert(t.containsString("new york"))
    assert(t.containsString("new york city"))
    assert(t.containsString("new jersey"))
  }

  test("keys lists all candidates lower-cased and sorted") {
    val t = trie("Beta", "alpha gamma", "ALPHA")
    assert(t.keys == Seq("alpha", "alpha gamma", "beta"))
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
    val extended = new CTrie
    extended.insertString("new york")
    extended.insertString("new york city council")
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

  test("insertString ignores extra whitespace") {
    val t = new CTrie
    t.insertString("  andy   beshear ")
    assert(t.containsString("andy beshear"))
  }

  test("serialized trie scans identically (broadcast-safe)") {
    val t = trie("andy beshear", "coronavirus", "new york city")
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(t)
    val t2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[CTrie]
    val sent = IndexedSeq("Andy", "Beshear", "on", "coronavirus", "in", "New", "York", "City")
    assert(t2.scan(sent) == t.scan(sent))
    assert(t2.keys == t.keys)
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
      val t = new CTrie
      keys.foreach(t.insert)
      val sentLen = Rng.int(15, 1003L, round.toLong)
      val sent = IndexedSeq.tabulate(sentLen)(p => vocab(Rng.int(vocab.size, 1004L, round.toLong, p.toLong)))
      val got = t.scan(sent)
      val exp = referenceScan(keys.map(_.map(_.toLowerCase)), sent)
      assert(got == exp, s"round=$round keys=$keys sent=$sent got=$got exp=$exp")
    }
  }
}
