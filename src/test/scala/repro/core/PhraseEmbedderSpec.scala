package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PhraseEmbedder.Pair
import repro.data.StsGen
import repro.nn.Net
import repro.util.Rng

class PhraseEmbedderSpec extends AnyFunSuite {

  private val dim = 32

  test("embed applies the dense layer (Eq. 2)") {
    val pe = new PhraseEmbedder(2, 2, 1L)
    pe.dense.w(0) = 1.0; pe.dense.w(1) = 0.0; pe.dense.w(2) = 0.0; pe.dense.w(3) = 1.0
    pe.dense.b(0) = 0.1; pe.dense.b(1) = 0.2
    assert(pe.embed(Array(1.0, 2.0)).toSeq == Seq(1.1, 2.2))
  }

  test("similarity is a cosine in [-1, 1]") {
    val pe = new PhraseEmbedder(dim, dim, 2L)
    (0 until 50).foreach { i =>
      val a = Array.tabulate(dim)(d => Rng.gaussian(5L, i.toLong, d.toLong))
      val b = Array.tabulate(dim)(d => Rng.gaussian(6L, i.toLong, d.toLong))
      val s = pe.similarity(a, b)
      assert(s >= -1.0 - 1e-9 && s <= 1.0 + 1e-9)
    }
  }

  test("initialization is deterministic in the seed") {
    val a = new PhraseEmbedder(dim, dim, 7L)
    val b = new PhraseEmbedder(dim, dim, 7L)
    assert(a.dense.w.toSeq == b.dense.w.toSeq)
  }

  test("training reduces validation MSE on synthetic STS pairs") {
    val salt = 0x51L
    val train = StsGen.pairs(dim, salt, 400, 1L)
    val valid = StsGen.pairs(dim, salt, 150, 2L)
    val pe = new PhraseEmbedder(dim, dim, 3L)
    val before = pe.loss(valid)
    val best = pe.fit(train, valid, maxEpochs = 30, patience = 6)
    assert(best < before, s"best=$best before=$before")
    assert(best < 0.30, s"validation loss too high: $best")
  }

  test("fit restores the best-validation weights") {
    val salt = 0x52L
    val train = StsGen.pairs(dim, salt, 200, 3L)
    val valid = StsGen.pairs(dim, salt, 80, 4L)
    val pe = new PhraseEmbedder(dim, dim, 5L)
    val best = pe.fit(train, valid, maxEpochs = 20, patience = 4)
    assert(math.abs(pe.loss(valid) - best) < 1e-9)
  }

  test("fit is deterministic") {
    val salt = 0x53L
    val train = StsGen.pairs(dim, salt, 150, 5L)
    val valid = StsGen.pairs(dim, salt, 60, 6L)
    def run(): Double = {
      val pe = new PhraseEmbedder(dim, dim, 9L)
      pe.fit(train, valid, maxEpochs = 10, patience = 3)
    }
    assert(run() == run())
  }

  test("fit gives pinned bits: returned loss and embedding") {
    val salt = 0x55L
    val train = StsGen.pairs(dim, salt, 200, 11L)
    val valid = StsGen.pairs(dim, salt, 80, 12L)
    val pe = new PhraseEmbedder(dim, dim, 13L)
    val loss = pe.fit(train, valid, maxEpochs = 15, patience = 4)
    val e = pe.embed(valid.head.a)
    val bits = (loss +: Seq(0, 7, 31).map(e(_))).map(java.lang.Double.doubleToLongBits)
    assert(bits == Seq(0x3fcd71e931e9dc0eL, 0x3fd000e8c50a6acaL, 0x3fd0be3de8924022L, 0xbfbad7537f99d727L))
  }

  test("fit rejects an empty training set") {
    val pe = new PhraseEmbedder(dim, dim, 10L)
    intercept[IllegalArgumentException](
      pe.fit(IndexedSeq.empty, IndexedSeq(Pair(Array.fill(dim)(0.1), Array.fill(dim)(0.1), 1.0))))
  }

  test("a trained head preserves class-mean separation (pipeline sanity)") {
    val salt = 0x54L
    val train = StsGen.pairs(dim, salt, 400, 7L)
    val valid = StsGen.pairs(dim, salt, 150, 8L)
    val pe = new PhraseEmbedder(dim, dim, 11L)
    pe.fit(train, valid, maxEpochs = 30, patience = 6)
    val muE = repro.emd.TokenEmbedder.classMean(dim, salt, entity = true)
    val muN = repro.emd.TokenEmbedder.classMean(dim, salt, entity = false)
    val pe1 = pe.embed(muE); val pe2 = pe.embed(muN)
    val dist = math.sqrt(pe1.zip(pe2).map { case (a, b) => (a - b) * (a - b) }.sum)
    assert(dist > 0.1, s"trained head collapsed the class separation: $dist")
  }

  test("STS pair labels are in [0, 1] and correlate with input cosine") {
    val ps = StsGen.pairs(dim, 0x55L, 300, 9L)
    assert(ps.forall(p => p.sim >= 0.0 && p.sim <= 1.0))
    val xs = ps.map(p => Net.cosine(p.a, p.b))
    val ys = ps.map(_.sim)
    val mx = xs.sum / xs.size; val my = ys.sum / ys.size
    val cov = xs.zip(ys).map { case (x, y) => (x - mx) * (y - my) }.sum
    val corr = cov / math.sqrt(xs.map(x => (x - mx) * (x - mx)).sum * ys.map(y => (y - my) * (y - my)).sum)
    assert(corr > 0.4, s"corr=$corr")
  }

  test("STS train/valid sets are disjoint draws") {
    val t = StsGen.trainSet(dim, 0x56L)
    val v = StsGen.validSet(dim, 0x56L)
    assert(t.size == StsGen.TrainPairs && v.size == StsGen.ValidPairs)
    assert(t.head.a.toSeq != v.head.a.toSeq)
  }
}
