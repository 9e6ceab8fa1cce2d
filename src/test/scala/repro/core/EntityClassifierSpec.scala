package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class EntityClassifierSpec extends AnyFunSuite {

  private val dim = 16

  private def rec(key: String, center: Double, count: Long, seed: Long): CandidateRecord =
    CandidateRecord(key, count,
      Array.tabulate(dim)(i => center + Rng.gaussian(seed, key.hashCode.toLong, i.toLong) / math.sqrt(count.toDouble)))

  private def labelled(n: Int, seed: Long): Seq[(CandidateRecord, Boolean)] =
    (0 until n).map { i =>
      val isEnt = i % 2 == 0
      val count = 1L + Rng.int(10, seed, i.toLong)
      (rec(s"cand$i", if (isEnt) 0.5 else -0.5, count, Rng.hash(seed, i.toLong)), isEnt)
    }

  test("bandOf maps scores to α/β/γ at the paper's thresholds") {
    assert(EntityClassifier.bandOf(0.56) == EntityClassifier.Alpha)
    assert(EntityClassifier.bandOf(0.55) == EntityClassifier.Alpha)
    assert(EntityClassifier.bandOf(0.54) == EntityClassifier.Gamma)
    assert(EntityClassifier.bandOf(0.41) == EntityClassifier.Gamma)
    assert(EntityClassifier.bandOf(0.40) == EntityClassifier.Beta)
    assert(EntityClassifier.bandOf(0.10) == EntityClassifier.Beta)
  }

  test("features append the normalized candidate length (the '+1')") {
    val r = CandidateRecord("ab cd", 3, Array(1.0, 2.0))
    val f = EntityClassifier.features(r)
    assert(f.length == 3)
    assert(f(2) == 5.0 / 20.0)
  }

  test("features cap the length feature at 1") {
    val r = CandidateRecord("x" * 50, 1, Array(0.0))
    assert(EntityClassifier.features(r).last == 1.0)
  }

  test("training separates well-separated candidate clusters") {
    val data = labelled(600, 0x77L)
    val (clf, valF1) = EntityClassifier.train(data, maxEpochs = 120)
    assert(valF1 > 0.9, s"validation F1=$valF1")
    val acc = data.count { case (r, y) => (clf.score(r) >= 0.5) == y }.toDouble / data.size
    assert(acc > 0.9, s"training accuracy=$acc")
  }

  test("scores are probabilities") {
    val data = labelled(200, 0x78L)
    val (clf, _) = EntityClassifier.train(data, maxEpochs = 40)
    data.foreach { case (r, _) =>
      val s = clf.score(r)
      assert(s > 0.0 && s < 1.0)
    }
  }

  test("high-frequency candidates are classified more reliably (Fig. 7 shape)") {
    // Same underlying class signal, different pool sizes: pooled noise is
    // σ/√count, so frequent candidates must land in confident bands more often.
    val data = labelled(800, 0x79L)
    val (clf, _) = EntityClassifier.train(data, maxEpochs = 120)
    def confidentRate(f: ((CandidateRecord, Boolean)) => Boolean): Double = {
      val sel = data.filter(f)
      sel.count { case (r, y) =>
        val band = EntityClassifier.bandOf(clf.score(r))
        (y && band == EntityClassifier.Alpha) || (!y && band == EntityClassifier.Beta)
      }.toDouble / sel.size
    }
    val rare = confidentRate { case (r, _) => r.mentionCount <= 2 }
    val freq = confidentRate { case (r, _) => r.mentionCount >= 8 }
    assert(freq >= rare, s"frequent=$freq rare=$rare")
    assert(freq > 0.85, s"frequent candidates should be confidently labelled: $freq")
  }

  test("training is deterministic") {
    val data = labelled(200, 0x80L)
    val (a, f1a) = EntityClassifier.train(data, maxEpochs = 30)
    val (b, f1b) = EntityClassifier.train(data, maxEpochs = 30)
    assert(f1a == f1b)
    val r = data.head._1
    assert(a.score(r) == b.score(r))
  }

  test("training rejects an empty candidate set") {
    intercept[IllegalArgumentException](EntityClassifier.train(Seq.empty))
  }
}
