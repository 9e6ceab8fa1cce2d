package repro.core

import repro.nn.{Adam, Linear, Net}
import repro.util.Rng

/** Entity Phrase Embedder (paper Sec. V-B-2, Fig. 4).
  *
  * A modified-SBERT Siamese head: mean-pooled token embeddings pass through
  * one trainable dense layer (Eq. 2); the underlying DNN stays frozen. The
  * head is trained on a sentence-similarity regression task (cosine of the
  * two dense outputs vs. the gold similarity, MSE loss, Adam, early
  * stopping), with weight updates mirrored across both sub-networks (here:
  * literally shared, as in SBERT).
  */
final class PhraseEmbedder(val inDim: Int, val outDim: Int, seed: Long) extends Serializable {
  val dense = new Linear(inDim, outDim, Rng.hash(seed, 0x9eL))

  /** local_emb = W_ff · pooled_emb + b_ff (Eq. 2). */
  def embed(pooled: Array[Double]): Array[Double] = dense.forward(pooled)

  /** Cosine similarity of two pooled inputs under the current head. */
  def similarity(a: Array[Double], b: Array[Double]): Double =
    Net.cosine(embed(a), embed(b))

  /** MSE of predicted vs. gold similarity over a pair set. */
  def loss(pairs: Seq[PhraseEmbedder.Pair]): Double =
    if (pairs.isEmpty) 0.0
    else pairs.map(p => { val d = similarity(p.a, p.b) - p.sim; d * d }).sum / pairs.size

  /** Accumulate grads for one pair. */
  private def backwardPair(p: PhraseEmbedder.Pair): Unit = {
    val pa = dense.forward(p.a)
    val pb = dense.forward(p.b)
    val na = Net.norm(pa); val nb = Net.norm(pb)
    if (na < 1e-12 || nb < 1e-12) return
    val c  = Net.dot(pa, pb) / (na * nb)
    val dc = 2.0 * (c - p.sim)
    val dpa = Array.tabulate(outDim)(i => dc * (pb(i) / (na * nb) - c * pa(i) / (na * na)))
    val dpb = Array.tabulate(outDim)(i => dc * (pa(i) / (na * nb) - c * pb(i) / (nb * nb)))
    // Shared (mirrored) weights: both sides accumulate into the same layer.
    dense.backward(p.a, dpa)
    dense.backward(p.b, dpb)
  }

  /** Train with [[repro.nn.Adam.fit]] (lr 0.001, batch 32, shuffle seed 13)
    * on validation MSE; restores the best weights and returns the best
    * validation loss.
    */
  def fit(train: IndexedSeq[PhraseEmbedder.Pair],
          valid: IndexedSeq[PhraseEmbedder.Pair],
          maxEpochs: Int = 60,
          patience: Int = 10): Double = {
    require(train.nonEmpty, "empty STS training set")
    Adam.fit(dense.params, train.size, lr = 0.001, batchSize = 32, maxEpochs, patience, minGain = 1e-7, seed = 13L)(
      i => backwardPair(train(i)), () => loss(valid))
  }
}

object PhraseEmbedder {
  /** A training pair: two pooled phrase inputs and a gold similarity in [0,1]. */
  final case class Pair(a: Array[Double], b: Array[Double], sim: Double)
}
