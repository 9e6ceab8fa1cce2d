package repro.core

import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestFixtures}
import repro.data.TweetGen
import repro.emd.{Aguilar, NpChunker}

class TrainingSpec extends SparkSpec {

  private lazy val trainedAguilar = TestFixtures.trained(spark, Aguilar)
  private lazy val trainedChunker = TestFixtures.trained(spark, NpChunker)

  test("trainFor produces a phrase embedder only for deep systems") {
    assert(trainedAguilar.phraseEmbedder.isDefined)
    assert(trainedAguilar.peValidationLoss.isDefined)
    assert(trainedChunker.phraseEmbedder.isEmpty)
    assert(trainedChunker.peValidationLoss.isEmpty)
  }

  test("phrase embedder validation loss is small") {
    assert(trainedAguilar.peValidationLoss.get < 0.3,
      s"peLoss=${trainedAguilar.peValidationLoss.get}")
  }

  test("trainPhraseEmbedder rejects non-deep systems") {
    intercept[IllegalArgumentException](Training.trainPhraseEmbedder(NpChunker))
  }

  test("training candidate set is substantial and mixed-label") {
    val labelled = Training.d5Candidates(
      spark, Aguilar, trainedAguilar.phraseEmbedder, TweetGen.D5Mini)
    assert(labelled.size > 300, s"only ${labelled.size} candidates")
    val pos = labelled.count(_._2)
    assert(pos > 50 && pos < labelled.size, s"positives=$pos of ${labelled.size}")
  }

  test("candidate labels agree with the training spec's entity keys") {
    val labelled = Training.d5Candidates(
      spark, Aguilar, trainedAguilar.phraseEmbedder, TweetGen.D5Mini)
    val entityKeys = TweetGen.D5Mini.entityKeys
    labelled.foreach { case (rec, isEnt) =>
      assert(isEnt == entityKeys.contains(rec.key), s"label mismatch for ${rec.key}")
    }
  }

  test("true-entity candidates pool more entity-like embeddings than lure candidates") {
    val labelled = Training.d5Candidates(
      spark, Aguilar, trainedAguilar.phraseEmbedder, TweetGen.D5Mini)
    val pe = trainedAguilar.phraseEmbedder.get
    val muE = pe.embed(repro.emd.TokenEmbedder.classMean(Aguilar.dim, Aguilar.params.salt, entity = true))
    val muN = pe.embed(repro.emd.TokenEmbedder.classMean(Aguilar.dim, Aguilar.params.salt, entity = false))
    val w = muE.zip(muN).map { case (a, b) => a - b }
    def proj(rec: CandidateRecord): Double = repro.nn.Net.dot(rec.pooled, w)
    val (ent, non) = labelled.partition(_._2)
    val entMean = ent.map(x => proj(x._1)).sum / ent.size
    val nonMean = non.map(x => proj(x._1)).sum / non.size
    assert(entMean > nonMean, s"entity proj $entMean should exceed non-entity $nonMean")
  }

  test("d5Candidates equals the seeds, CTrie, mine and pool chain, in order and bitwise") {
    val spec = TweetGen.D5Mini
    Seq(trainedChunker, trainedAguilar).foreach { t =>
      val tweets = TweetGen.generate(spark, spec).persist(StorageLevel.MEMORY_AND_DISK)
      tweets.count()
      val dets = Globalizer.localPhase(tweets, t.system, spec, chargeEmbeddingCost = false)
      val trie = spark.sparkContext.broadcast(CTrie.fromKeys(Globalizer.seedKeys(dets)))
      val chain = GlobalPooling.pool(
        MentionExtractor.mine(tweets, trie, t.system, spec.seed, t.phraseEmbedder)).collect().toSeq
      Seq(tweets, dets).foreach(_.unpersist())
      trie.destroy()

      val got = Training.d5Candidates(spark, t.system, t.phraseEmbedder, spec).map(_._1)
      assert(got.map(_.key) == chain.map(_.key), t.system.name)
      got.zip(chain).foreach { case (g, c) =>
        assert(g.mentionCount == c.mentionCount, c.key)
        assert(g.pooled.sameElements(c.pooled), c.key)
      }
    }
  }

  test("embeddingSizeLabel reflects the system") {
    assert(trainedAguilar.embeddingSizeLabel == "100+1")
    assert(trainedChunker.embeddingSizeLabel == "6+1")
  }
}
