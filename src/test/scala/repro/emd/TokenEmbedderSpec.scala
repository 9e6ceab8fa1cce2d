package repro.emd

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GoldSpan, LureSpan, Tweet}
import repro.nn.Net

class TokenEmbedderSpec extends AnyFunSuite {

  private val dim = 64
  private val salt = 0xABCL
  private val dsSeed = 11L

  private def tweetWithGold(id: Long): Tweet =
    Tweet(id, 0, Seq("the", "Vebaba", "spoke"), Seq(GoldSpan(1, 1, 5L)), Seq.empty)

  test("embeddings are deterministic") {
    val t = tweetWithGold(1L)
    val a = TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 1)
    val b = TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 1)
    assert(a.toSeq == b.toSeq)
  }

  test("embeddings differ across positions and tweets") {
    val t = tweetWithGold(1L)
    assert(TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 0).toSeq !=
      TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 2).toSeq)
    assert(TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 1).toSeq !=
      TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, tweetWithGold(2L), 1).toSeq)
  }

  test("class means are separated by the designed distance") {
    val e = TokenEmbedder.classMean(dim, salt, entity = true)
    val n = TokenEmbedder.classMean(dim, salt, entity = false)
    val d = math.sqrt(e.zip(n).map { case (a, b) => (a - b) * (a - b) }.sum)
    assert(d > 1.0 && d < 2.5, s"separation=$d") // designed ≈ 1.7
  }

  test("class means are memoized to the same array instance") {
    assert(TokenEmbedder.classMean(dim, salt, entity = true) eq
      TokenEmbedder.classMean(dim, salt, entity = true))
  }

  test("posClass marks gold positions as entity (or midpoint for hard mentions)") {
    val classes = (0L until 200L).map { id =>
      TokenEmbedder.posClass(tweetWithGold(id), 1, salt, dsSeed)
    }
    assert(classes.forall(c => c == TokenEmbedder.Entity || c == TokenEmbedder.Midpoint))
    val hardFrac = classes.count(_ == TokenEmbedder.Midpoint).toDouble / classes.size
    assert(hardFrac > 0.03 && hardFrac < 0.2, s"hard fraction=$hardFrac") // designed 0.10
  }

  test("posClass marks filler positions as non-entity") {
    (0L until 50L).foreach { id =>
      assert(TokenEmbedder.posClass(tweetWithGold(id), 0, salt, dsSeed) == TokenEmbedder.NonEntity)
    }
  }

  test("entity-like lures draw entity embeddings most of the time") {
    val likeIds = (1L to 2000L).filter(TokenEmbedder.entityLikeLure(dsSeed, _))
    val frac = likeIds.size.toDouble / 2000
    assert(frac > 0.06 && frac < 0.2, s"entity-like lure fraction=$frac") // designed 0.12
    val lid = likeIds.head
    val classes = (0L until 100L).map { id =>
      val t = Tweet(id, 0, Seq("a", "Zobaba", "b"), Seq.empty, Seq(LureSpan(1, 1, lid)))
      TokenEmbedder.posClass(t, 1, salt, dsSeed)
    }
    assert(classes.count(_ == TokenEmbedder.Entity) > 50)
  }

  test("ordinary lures are non-entity context") {
    val plainId = (1L to 2000L).find(id => !TokenEmbedder.entityLikeLure(dsSeed, id)).get
    (0L until 50L).foreach { id =>
      val t = Tweet(id, 0, Seq("a", "Zobaba", "b"), Seq.empty, Seq(LureSpan(1, 1, plainId)))
      assert(TokenEmbedder.posClass(t, 1, salt, dsSeed) == TokenEmbedder.NonEntity)
    }
  }

  test("single-mention separation is weak but pooled separation is strong") {
    val muE = TokenEmbedder.classMean(dim, salt, entity = true)
    val muN = TokenEmbedder.classMean(dim, salt, entity = false)
    val w = muE.zip(muN).map { case (a, b) => a - b } // discriminant direction
    def project(e: Array[Double]): Double = Net.dot(e, w) / Net.norm(w)

    val entityProj = (0L until 400L).filter { id =>
      TokenEmbedder.posClass(tweetWithGold(id), 1, salt, dsSeed) == TokenEmbedder.Entity
    }.map(id => project(TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, tweetWithGold(id), 1)))
    val fillerProj = (0L until 400L).map(id =>
      project(TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, tweetWithGold(id), 0)))

    // Single mentions overlap: some entity draws score below some filler draws.
    assert(entityProj.min < fillerProj.max, "singles should overlap")
    // Pools of 8 mentions separate cleanly.
    val ePools = entityProj.grouped(8).map(g => g.sum / g.size).toSeq
    val fPools = fillerProj.grouped(8).map(g => g.sum / g.size).toSeq
    assert(ePools.min > fPools.max, "pooled means should separate")
  }

  test("phraseMean equals the mean of token embeddings (Eq. 1)") {
    val t = Tweet(9L, 0, Seq("Andy", "Beshear", "spoke"), Seq(GoldSpan(0, 2, 3L)), Seq.empty)
    val m = TokenEmbedder.phraseMean(dim, salt, dsSeed, t, 0, 2)
    val e0 = TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 0)
    val e1 = TokenEmbedder.tokenEmbedding(dim, salt, dsSeed, t, 1)
    m.indices.foreach(i => assert(math.abs(m(i) - (e0(i) + e1(i)) / 2) < 1e-12))
  }

  test("different salts give different embedding spaces") {
    val t = tweetWithGold(1L)
    assert(TokenEmbedder.tokenEmbedding(dim, 0x1L, dsSeed, t, 1).toSeq !=
      TokenEmbedder.tokenEmbedding(dim, 0x2L, dsSeed, t, 1).toSeq)
  }
}
