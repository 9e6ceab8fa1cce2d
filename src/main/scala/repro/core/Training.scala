package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.{StsGen, TweetGen}
import repro.emd.LocalEmd
import repro.util.Rng

/** Training of the framework's two learned components (paper Sec. VI):
  *
  *   - the Entity Phrase Embedder (deep systems only): Siamese dense head
  *     on a sentence-similarity regression task (our synthetic STS-b);
  *   - the Entity Classifier: supervised on global candidate embeddings
  *     extracted from dataset D5 (38K-tweet training stream), labelled
  *     entity / non-entity.
  *
  * The classifier is retrained per Local EMD instantiation, as in the paper.
  */
object Training {

  /** A fully trained framework instance for one Local EMD system. */
  final case class Trained(system: LocalEmd,
                           phraseEmbedder: Option[PhraseEmbedder],
                           peValidationLoss: Option[Double],
                           classifier: EntityClassifier,
                           classifierValidationF1: Double,
                           nTrainingCandidates: Int) {
    def embeddingSizeLabel: String =
      s"${if (system.deep) system.dim else SyntacticEmbedding.Dim}+1"
  }

  /** Train the Phrase Embedder for a deep system; returns (head, val loss). */
  def trainPhraseEmbedder(system: LocalEmd): (PhraseEmbedder, Double) = {
    require(system.deep, s"${system.name} is not a deep system")
    val dim = system.dim
    val pe = new PhraseEmbedder(dim, dim, Rng.hash(0xFEEDL, system.params.salt))
    val valLoss = pe.fit(
      StsGen.trainSet(dim, system.params.salt),
      StsGen.validSet(dim, system.params.salt))
    (pe, valLoss)
  }

  /** Extract labelled global candidate records from a training stream
    * (D5 in the paper) for a system: one pipeline iteration's local phase and
    * CandidateBase update ([[StreamingGlobalizer.State.absorb]]) on a fresh
    * state, sorted by key.
    */
  def d5Candidates(spark: SparkSession,
                   system: LocalEmd,
                   pe: Option[PhraseEmbedder],
                   spec: TweetGen.Spec = TweetGen.D5): Seq[(CandidateRecord, Boolean)] = {
    val tweets = TweetGen.tweets(spark.sparkContext, spec)
    val dets = Globalizer.localPhase(tweets, system, spec, chargeEmbeddingCost = false).dets
    val state = new StreamingGlobalizer.State
    state.absorb(tweets, dets, spec, system, pe)
    val entityKeys = spec.entityKeys
    state.records.map(r => (r, entityKeys.contains(r.key)))
  }

  /** Train everything needed to run the framework with `system`. */
  def trainFor(spark: SparkSession, system: LocalEmd,
               trainSpec: TweetGen.Spec = TweetGen.D5): Trained = {
    val (pe, peLoss) =
      if (system.deep) { val (p, l) = trainPhraseEmbedder(system); (Some(p), Some(l)) }
      else (None, None)
    val labelled = d5Candidates(spark, system, pe, trainSpec)
    val (clf, valF1) = EntityClassifier.train(labelled, seed = Rng.hash(0xC1FL, system.params.salt))
    Trained(system, pe, peLoss, clf, valF1, labelled.size)
  }
}
