package repro.core

import scala.collection.mutable

/** CandidatePrefixTrie (CTrie) — the paper's index of seed entity candidates.
  *
  * A token-level prefix-trie forest: each node is one (lower-cased) token of
  * a candidate string; candidates sharing a prefix share a subtree. Lookups
  * are case-insensitive. The trie is built on the driver from the seed
  * candidates produced by Local EMD and broadcast to executors for the
  * occurrence-mining scan (see [[MentionExtractor]]).
  *
  * `scan` implements the paper's longest-match window algorithm (Sec. V-A):
  * a window extends to the right while the token sequence matches an
  * existing trie path; the longest prefix that ends at a valid candidate
  * node is recorded. On a mismatch, if a match was recorded the next window
  * starts right after it; otherwise the window restarts one token to the
  * right of the previous window's first token.
  */
final class CTrie extends Serializable {

  private[core] final class Node extends Serializable {
    val children: mutable.HashMap[String, Node] = mutable.HashMap.empty
    var terminal: Boolean = false
  }

  private val root = new Node

  /** Marks a candidate key (whitespace-tokenized, case-insensitive) as a
    * terminal path; a blank key is ignored.
    */
  private def insert(key: String): Unit = {
    val tokens = key.split("\\s+").filter(_.nonEmpty)
    if (tokens.nonEmpty) {
      val last = tokens.foldLeft(root)((node, t) => node.children.getOrElseUpdate(Detection.keyOf(t), new Node))
      last.terminal = true
    }
  }

  /** Longest-match scan of a token sequence; returns (start, len) spans of
    * candidate mentions, left to right, non-overlapping.
    */
  def scan(tokens: IndexedSeq[String]): Seq[(Int, Int)] = {
    val n = tokens.length
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    var i = 0
    while (i < n) {
      var node: Node = root
      var j = i
      var lastMatchEnd = -1
      var continue = true
      while (continue && j < n) {
        node.children.get(Detection.keyOf(tokens(j))) match {
          case Some(next) =>
            node = next
            if (node.terminal) lastMatchEnd = j
            j += 1
          case None =>
            continue = false
        }
      }
      if (lastMatchEnd >= 0) {
        out += ((i, lastMatchEnd - i + 1))
        i = lastMatchEnd + 1
      } else {
        i += 1
      }
    }
    out.toSeq
  }
}

object CTrie {
  /** Build a trie from candidate keys (driver-side). */
  def fromKeys(keys: Iterable[String]): CTrie = {
    val t = new CTrie
    keys.foreach(t.insert)
    t
  }
}
