package repro.core

import repro.nn.MlpClassifier
import repro.util.Rng

/** Entity Classifier (paper Sec. V-C): a feed-forward network (ReLU hidden
  * layers, sigmoid output) over the global candidate embedding plus a
  * candidate-length feature ("+1" in Table II). The sigmoid output is cut
  * into three bands:
  *
  *   - α: score ≥ 0.55 — confidently an entity (all mined mentions emitted),
  *   - β: score ≤ 0.40 — confidently a non-entity (all mentions dropped,
  *     including Local EMD's own),
  *   - γ: in between — ambiguous; pending more evidence we keep only the
  *     mentions Local EMD itself produced (our concretization of the
  *     paper's "requires more evidence downstream").
  */
final class EntityClassifier(val inputDim: Int, seed: Long) extends Serializable {
  val mlp = new MlpClassifier(Array(inputDim, 64, 32, 1), seed)

  def score(rec: CandidateRecord): Double =
    mlp.predictProba(EntityClassifier.features(rec))
}

object EntityClassifier {

  val Alpha = 1 // entity
  val Beta  = 0 // non-entity
  val Gamma = 2 // ambiguous

  val AlphaThreshold = 0.55
  val BetaThreshold  = 0.40

  def bandOf(score: Double): Int =
    if (score >= AlphaThreshold) Alpha
    else if (score <= BetaThreshold) Beta
    else Gamma

  /** Global embedding ⊕ normalized candidate-string length. */
  def features(rec: CandidateRecord): Array[Double] =
    rec.pooled :+ math.min(1.0, rec.key.length / 20.0)

  /** Supervised training on labelled candidate records (paper Sec. VI:
    * 80-20 split, Adam lr = 0.0015, batch 128, early stopping patience 20).
    * Returns the classifier and the validation F1 at threshold 0.5
    * (the "Validation F1" of Table II).
    */
  def train(labelled: Seq[(CandidateRecord, Boolean)],
            seed: Long = 0xEC1L,
            maxEpochs: Int = 300): (EntityClassifier, Double) = {
    require(labelled.nonEmpty, "no labelled candidates")
    val inputDim = features(labelled.head._1).length
    val clf = new EntityClassifier(inputDim, seed)

    val examples = labelled.map { case (rec, isEnt) =>
      (features(rec), if (isEnt) 1.0 else 0.0)
    }.toIndexedSeq
    // Deterministic 80-20 split on the candidate key hash.
    val (train, valid) = labelled.indices.partition(i =>
      Rng.unif(seed, 0x5417L, Rng.hash(labelled(i)._1.key.hashCode.toLong)) < 0.8)
    require(train.nonEmpty && valid.nonEmpty, "degenerate train/validation split")

    clf.mlp.fit(
      train.map(examples).toIndexedSeq,
      valid.map(examples).toIndexedSeq,
      lr = 0.0015, batchSize = 128, maxEpochs = maxEpochs, patience = 20, seed = seed)

    (clf, f1(clf, valid.map(examples)))
  }

  /** F1 of `clf` on labelled examples at threshold 0.5. */
  private def f1(clf: EntityClassifier, valid: Seq[(Array[Double], Double)]): Double = {
    var tp = 0; var fp = 0; var fn = 0
    valid.foreach { case (x, y) =>
      val pred = clf.mlp.predictProba(x) >= 0.5
      if (pred && y > 0.5) tp += 1
      else if (pred) fp += 1
      else if (y > 0.5) fn += 1
    }
    if (tp == 0) 0.0 else 2.0 * tp / (2.0 * tp + fp + fn)
  }
}
