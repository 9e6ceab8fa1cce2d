package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class NetSpec extends AnyFunSuite {

  // ------------------------------------------------------------- primitives

  test("relu zeroes negatives and keeps positives") {
    assert(Net.relu(Array(-1.0, 0.0, 2.5)).toSeq == Seq(0.0, 0.0, 2.5))
  }

  test("reluBackward passes gradient only where output was positive") {
    val d = Net.reluBackward(Array(0.0, 3.0), Array(5.0, 7.0))
    assert(d.toSeq == Seq(0.0, 7.0))
  }

  test("sigmoid at 0 is 0.5, monotone") {
    assert(math.abs(Net.sigmoid(0.0) - 0.5) < 1e-12)
    assert(Net.sigmoid(2.0) > Net.sigmoid(1.0))
    assert(Net.sigmoid(-30) > 0.0 && Net.sigmoid(30) < 1.0)
  }

  test("dot and norm") {
    assert(Net.dot(Array(1.0, 2.0), Array(3.0, 4.0)) == 11.0)
    assert(math.abs(Net.norm(Array(3.0, 4.0)) - 5.0) < 1e-12)
  }

  test("cosine of identical vectors is 1, of orthogonal is 0") {
    assert(math.abs(Net.cosine(Array(1.0, 2.0), Array(2.0, 4.0)) - 1.0) < 1e-12)
    assert(math.abs(Net.cosine(Array(1.0, 0.0), Array(0.0, 1.0))) < 1e-12)
  }

  test("cosine of zero vector is defined as 0") {
    assert(Net.cosine(Array(0.0, 0.0), Array(1.0, 1.0)) == 0.0)
  }

  test("mean of vectors is element-wise") {
    val m = Net.mean(Seq(Array(1.0, 2.0), Array(3.0, 6.0)))
    assert(m.toSeq == Seq(2.0, 4.0))
  }

  test("mean of empty seq throws") {
    intercept[IllegalArgumentException](Net.mean(Seq.empty))
  }

  // ----------------------------------------------------------------- Linear

  test("Linear forward computes Wx + b") {
    val lin = new Linear(2, 2, seed = 1L)
    lin.w(0) = 1.0; lin.w(1) = 2.0; lin.w(2) = 3.0; lin.w(3) = 4.0
    lin.b(0) = 0.5; lin.b(1) = -0.5
    val y = lin.forward(Array(1.0, 1.0))
    assert(y.toSeq == Seq(3.5, 6.5))
  }

  test("Linear forward rejects wrong input size") {
    intercept[IllegalArgumentException](new Linear(3, 2, 1L).forward(Array(1.0)))
  }

  test("Linear initialization is deterministic in the seed") {
    val a = new Linear(4, 3, 7L); val b = new Linear(4, 3, 7L)
    assert(a.w.toSeq == b.w.toSeq)
    val c = new Linear(4, 3, 8L)
    assert(a.w.toSeq != c.w.toSeq)
  }

  test("Linear backward gradients match numerical gradients") {
    val lin = new Linear(3, 2, 11L)
    val x = Array(0.3, -0.8, 1.2)
    // Loss = sum of outputs; dOut = ones.
    def loss(): Double = lin.forward(x).sum
    lin.backward(x, Array(1.0, 1.0))
    val eps = 1e-6
    (0 until lin.w.length).foreach { i =>
      val orig = lin.w(i)
      lin.w(i) = orig + eps; val up = loss()
      lin.w(i) = orig - eps; val dn = loss()
      lin.w(i) = orig
      assert(math.abs((up - dn) / (2 * eps) - lin.gw(i)) < 1e-5, s"w grad $i")
    }
    (0 until lin.b.length).foreach { i =>
      val orig = lin.b(i)
      lin.b(i) = orig + eps; val up = loss()
      lin.b(i) = orig - eps; val dn = loss()
      lin.b(i) = orig
      assert(math.abs((up - dn) / (2 * eps) - lin.gb(i)) < 1e-5, s"b grad $i")
    }
  }

  test("Linear backward returns dX = W^T dOut") {
    val lin = new Linear(2, 2, 3L)
    lin.w(0) = 1.0; lin.w(1) = 2.0; lin.w(2) = 3.0; lin.w(3) = 4.0
    val dX = lin.backward(Array(0.0, 0.0), Array(1.0, 1.0))
    assert(dX.toSeq == Seq(4.0, 6.0))
  }

  // ------------------------------------------------------------------- Adam

  test("Adam minimizes a simple quadratic") {
    // Minimize (p - 3)^2 with gradient 2(p-3).
    val p = Array(0.0); val g = Array(0.0)
    val adam = new Adam(Seq((p, g)), lr = 0.1)
    (0 until 500).foreach { _ =>
      g(0) = 2 * (p(0) - 3.0)
      adam.step(1)
    }
    assert(math.abs(p(0) - 3.0) < 1e-3, s"p=${p(0)}")
  }

  test("Adam scales the gradient by batch size") {
    val p1 = Array(0.0); val g1 = Array(2.0)
    val p2 = Array(0.0); val g2 = Array(4.0)
    new Adam(Seq((p1, g1)), lr = 0.01).step(1)
    new Adam(Seq((p2, g2)), lr = 0.01).step(2)
    assert(math.abs(p1(0) - p2(0)) < 1e-12) // same effective gradient
  }

  // ---------------------------------------------------------- MlpClassifier

  private def blob(n: Int, center: Double, label: Double, seed: Long): IndexedSeq[(Array[Double], Double)] =
    (0 until n).map { i =>
      (Array.tabulate(4)(d => center + 0.5 * Rng.gaussian(seed, i.toLong, d.toLong)), label)
    }

  test("MlpClassifier separates two Gaussian blobs") {
    val train = blob(300, 1.0, 1.0, 1L) ++ blob(300, -1.0, 0.0, 2L)
    val valid = blob(100, 1.0, 1.0, 3L) ++ blob(100, -1.0, 0.0, 4L)
    val mlp = new MlpClassifier(Array(4, 16, 1), 5L)
    mlp.fit(train, valid, lr = 0.01, batchSize = 32, maxEpochs = 100, patience = 10)
    val acc = valid.count { case (x, y) => (mlp.predictProba(x) >= 0.5) == (y > 0.5) }.toDouble / valid.size
    assert(acc > 0.95, s"acc=$acc")
  }

  test("MlpClassifier training reduces validation loss") {
    val train = blob(200, 0.8, 1.0, 11L) ++ blob(200, -0.8, 0.0, 12L)
    val valid = blob(80, 0.8, 1.0, 13L) ++ blob(80, -0.8, 0.0, 14L)
    val mlp = new MlpClassifier(Array(4, 8, 1), 15L)
    val before = mlp.loss(valid)
    val best = mlp.fit(train, valid, lr = 0.01, batchSize = 32, maxEpochs = 60, patience = 10)
    assert(best < before, s"best=$best before=$before")
    assert(math.abs(mlp.loss(valid) - best) < 1e-9, "restored weights should give the best loss")
  }

  test("MlpClassifier predictProba is in (0, 1)") {
    val mlp = new MlpClassifier(Array(3, 8, 1), 21L)
    (0 until 50).foreach { i =>
      val p = mlp.predictProba(Array.tabulate(3)(d => Rng.gaussian(30L, i.toLong, d.toLong)))
      assert(p > 0.0 && p < 1.0)
    }
  }

  test("MlpClassifier requires final dim of 1") {
    intercept[IllegalArgumentException](new MlpClassifier(Array(3, 2), 1L))
  }

  test("MlpClassifier is deterministic in seed and data") {
    val train = blob(100, 0.5, 1.0, 31L) ++ blob(100, -0.5, 0.0, 32L)
    val valid = blob(40, 0.5, 1.0, 33L) ++ blob(40, -0.5, 0.0, 34L)
    def fitOne(): Double = {
      val m = new MlpClassifier(Array(4, 8, 1), 35L)
      m.fit(train, valid, lr = 0.01, batchSize = 16, maxEpochs = 20, patience = 5)
      m.predictProba(Array(0.1, 0.2, 0.3, 0.4))
    }
    assert(fitOne() == fitOne())
  }

  test("MlpClassifier fit gives pinned bits: returned loss and predictions") {
    val train = blob(200, 0.6, 1.0, 61L) ++ blob(200, -0.6, 0.0, 62L)
    val valid = blob(80, 0.6, 1.0, 63L) ++ blob(80, -0.6, 0.0, 64L)
    val mlp = new MlpClassifier(Array(4, 8, 1), 65L)
    val loss = mlp.fit(train, valid, lr = 0.01, batchSize = 16, maxEpochs = 40, patience = 5)
    val probes = Seq(Array(0.1, 0.2, 0.3, 0.4), Array(-0.5, 0.0, 0.5, -1.0), Array(1.0, 1.0, -1.0, 0.2))
    val bits = (loss +: probes.map(mlp.predictProba)).map(java.lang.Double.doubleToLongBits)
    assert(bits == Seq(0x3f9cba7f9fe7eaaeL, 0x3fef3f870bc91252L, 0x3fa64ea7d5802837L, 0x3fee10f88c1f71faL))
  }

  test("MlpClassifier rejects empty training set") {
    val m = new MlpClassifier(Array(2, 4, 1), 51L)
    intercept[IllegalArgumentException](
      m.fit(IndexedSeq.empty, IndexedSeq((Array(0.0, 0.0), 1.0)), 0.01, 8, 5, 2))
  }
}
