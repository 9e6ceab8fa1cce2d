package repro.nn

import repro.util.Rng

/** A dense layer with its own gradient buffers.
  *
  * This tiny substrate exists because the paper's Entity Classifier and
  * Entity Phrase Embedder are small feed-forward networks trained with Adam;
  * no deep-learning library is available offline, so we implement exactly
  * what those two components need: dense layers, ReLU/sigmoid, MSE/BCE
  * losses, and Adam with early stopping.
  *
  * Weights are Xavier-initialized deterministically from `seed`.
  */
final class Linear(val inDim: Int, val outDim: Int, seed: Long) extends Serializable {
  val w: Array[Double] = {
    val limit = math.sqrt(6.0 / (inDim + outDim))
    Array.tabulate(outDim * inDim)(i => (Rng.unif(seed, i.toLong) * 2 - 1) * limit)
  }
  val b: Array[Double] = new Array[Double](outDim)

  val gw: Array[Double] = new Array[Double](outDim * inDim)
  val gb: Array[Double] = new Array[Double](outDim)

  def forward(x: Array[Double]): Array[Double] = {
    require(x.length == inDim, s"Linear($inDim->$outDim) got input of length ${x.length}")
    val out = new Array[Double](outDim)
    var o = 0
    while (o < outDim) {
      var s = b(o)
      val base = o * inDim
      var i = 0
      while (i < inDim) { s += w(base + i) * x(i); i += 1 }
      out(o) = s
      o += 1
    }
    out
  }

  /** Accumulate grads for (x, dOut) and return dX. [[Adam.fit]] zeroes the
    * grads before each batch.
    */
  def backward(x: Array[Double], dOut: Array[Double]): Array[Double] = {
    val dX = new Array[Double](inDim)
    var o = 0
    while (o < outDim) {
      val g = dOut(o)
      val base = o * inDim
      gb(o) += g
      var i = 0
      while (i < inDim) {
        gw(base + i) += g * x(i)
        dX(i) += w(base + i) * g
        i += 1
      }
      o += 1
    }
    dX
  }

  def params: Seq[(Array[Double], Array[Double])] = Seq((w, gw), (b, gb))
}

/** Adam optimizer over a set of (param, grad) array pairs (Kingma & Ba),
  * with the usual β1 = 0.9, β2 = 0.999 and ε = 1e-8.
  */
final class Adam(paramGrads: Seq[(Array[Double], Array[Double])], lr: Double) extends Serializable {
  import Adam.{Beta1, Beta2, Eps}
  private val m = paramGrads.map { case (p, _) => new Array[Double](p.length) }
  private val v = paramGrads.map { case (p, _) => new Array[Double](p.length) }
  private var t = 0

  /** One update from the currently-accumulated grads, scaled by 1/batchSize. */
  def step(batchSize: Int): Unit = {
    t += 1
    val bc1 = 1.0 - math.pow(Beta1, t)
    val bc2 = 1.0 - math.pow(Beta2, t)
    paramGrads.zipWithIndex.foreach { case ((p, g), k) =>
      val mk = m(k); val vk = v(k)
      var i = 0
      while (i < p.length) {
        val gi = g(i) / batchSize
        mk(i) = Beta1 * mk(i) + (1 - Beta1) * gi
        vk(i) = Beta2 * vk(i) + (1 - Beta2) * gi * gi
        p(i) -= lr * (mk(i) / bc1) / (math.sqrt(vk(i) / bc2) + Eps)
        i += 1
      }
    }
  }
}

object Adam {
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8

  /** Mini-batch Adam with early stopping on validation loss, the training
    * recipe of both learned components. Each epoch visits the `n` training
    * examples in a deterministic shuffle of `seed`; `accumulate(i)` adds the
    * gradients of example `i` to the grad arrays of `paramGrads`. An epoch
    * counts as an improvement when `validLoss()` drops by more than
    * `minGain`; after `patience` epochs without one, training stops. The
    * best-validation params are restored and their loss returned.
    */
  def fit(paramGrads: Seq[(Array[Double], Array[Double])],
          n: Int,
          lr: Double,
          batchSize: Int,
          maxEpochs: Int,
          patience: Int,
          minGain: Double,
          seed: Long)(accumulate: Int => Unit, validLoss: () => Double): Double = {
    val adam = new Adam(paramGrads, lr)
    val params = paramGrads.map(_._1)
    val best = params.map(_.clone())
    def copy(from: Seq[Array[Double]], to: Seq[Array[Double]]): Unit =
      from.zip(to).foreach { case (f, t) => System.arraycopy(f, 0, t, 0, f.length) }
    var bestLoss = validLoss()
    var sinceBest = 0
    var epoch = 0
    while (epoch < maxEpochs && sinceBest < patience) {
      val order = (0 until n).sortBy(i => Rng.hash(seed, epoch.toLong, i.toLong))
      var start = 0
      while (start < n) {
        val end = math.min(n, start + batchSize)
        paramGrads.foreach { case (_, g) => java.util.Arrays.fill(g, 0.0) }
        var i = start
        while (i < end) { accumulate(order(i)); i += 1 }
        adam.step(end - start)
        start = end
      }
      val vl = validLoss()
      if (vl < bestLoss - minGain) {
        bestLoss = vl
        copy(params, best)
        sinceBest = 0
      } else sinceBest += 1
      epoch += 1
    }
    copy(best, params)
    bestLoss
  }
}

object Net {
  def relu(x: Array[Double]): Array[Double] = x.map(v => if (v > 0) v else 0.0)

  /** dRelu applied in place to dOut given the forward output. */
  def reluBackward(out: Array[Double], dOut: Array[Double]): Array[Double] = {
    val d = new Array[Double](dOut.length)
    var i = 0
    while (i < d.length) { d(i) = if (out(i) > 0) dOut(i) else 0.0; i += 1 }
    d
  }

  def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

  def cosine(a: Array[Double], b: Array[Double]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  def mean(vectors: Seq[Array[Double]]): Array[Double] = {
    require(vectors.nonEmpty, "mean of no vectors")
    val d = vectors.head.length
    val out = new Array[Double](d)
    vectors.foreach { v =>
      var i = 0
      while (i < d) { out(i) += v(i); i += 1 }
    }
    var i = 0
    while (i < d) { out(i) /= vectors.size; i += 1 }
    out
  }
}

/** Binary classifier: ReLU hidden layers + single-logit sigmoid output,
  * trained with BCE loss, Adam, mini-batches, and early stopping on
  * validation loss — the paper's Entity Classifier training recipe.
  */
final class MlpClassifier(val dims: Array[Int], seed: Long) extends Serializable {
  require(dims.length >= 2 && dims.last == 1, s"dims must end in 1, got ${dims.mkString(",")}")
  val layers: Array[Linear] =
    Array.tabulate(dims.length - 1)(i => new Linear(dims(i), dims(i + 1), Rng.hash(seed, i.toLong)))

  /** Forward pass returning each layer's post-activation output (input first). */
  private def forwardAll(x: Array[Double]): Array[Array[Double]] = {
    val acts = new Array[Array[Double]](layers.length + 1)
    acts(0) = x
    var l = 0
    while (l < layers.length) {
      val z = layers(l).forward(acts(l))
      acts(l + 1) = if (l < layers.length - 1) Net.relu(z) else z
      l += 1
    }
    acts
  }

  /** P(entity | x). */
  def predictProba(x: Array[Double]): Double = Net.sigmoid(forwardAll(x).last(0))

  /** Accumulate grads for one example. */
  private def backwardExample(x: Array[Double], y: Double): Unit = {
    val acts = forwardAll(x)
    // dL/dz for sigmoid+BCE collapses to (p - y).
    var dOut = Array(Net.sigmoid(acts.last(0)) - y)
    var l = layers.length - 1
    while (l >= 0) {
      val dIn = layers(l).backward(acts(l), dOut)
      dOut = if (l > 0) Net.reluBackward(acts(l), dIn) else dIn
      l -= 1
    }
  }

  def loss(data: Seq[(Array[Double], Double)]): Double = {
    if (data.isEmpty) 0.0
    else data.map { case (x, y) =>
      val p = math.min(1 - 1e-12, math.max(1e-12, predictProba(x)))
      -(y * math.log(p) + (1 - y) * math.log(1 - p))
    }.sum / data.size
  }

  /** Train with [[Adam.fit]] (BCE loss); restores the best-validation
    * weights and returns the best validation loss.
    */
  def fit(train: IndexedSeq[(Array[Double], Double)],
          valid: IndexedSeq[(Array[Double], Double)],
          lr: Double,
          batchSize: Int,
          maxEpochs: Int,
          patience: Int,
          seed: Long = 7L): Double = {
    require(train.nonEmpty, "empty training set")
    Adam.fit(layers.toSeq.flatMap(_.params), train.size, lr, batchSize, maxEpochs, patience,
      minGain = 1e-6, seed)(i => { val (x, y) = train(i); backwardExample(x, y) }, () => loss(valid))
  }
}
