package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ModelSpec extends AnyFunSuite {

  private val tweet = Tweet(7L, 0, Seq("the", "Andy", "Beshear", "said"),
    Seq(GoldSpan(1, 2, 42L)), Seq(LureSpan(3, 1, 9L)))

  test("surface joins the span tokens with spaces") {
    assert(tweet.surface(1, 2) == "Andy Beshear")
    assert(tweet.surface(0, 1) == "the")
  }

  test("Detection.keyOf lower-cases") {
    assert(Detection.keyOf("Andy BESHEAR") == "andy beshear")
  }

  test("Detection.key derives from its surface") {
    val d = Detection.of(tweet, 1, 2)
    assert(d.key == "andy beshear")
    assert(d.span == ((7L, 0, 1, 2)))
  }

  test("CandidateRecord holds its pooled embedding by reference semantics") {
    val r = CandidateRecord("k", 2, Array(1.0, 2.0))
    assert(r.mentionCount == 2)
    assert(r.pooled.toSeq == Seq(1.0, 2.0))
  }

  test("gold and lure spans are plain value classes") {
    assert(GoldSpan(1, 2, 42L) == GoldSpan(1, 2, 42L))
    assert(LureSpan(3, 1, 9L) == LureSpan(3, 1, 9L))
  }
}
