package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.Dataset
import repro.core.{SyntacticEmbedding => Syn}
import repro.emd.{LocalEmd, TokenEmbedder}

/** A candidate mention with its local candidate embedding. */
case class MentionEmb(mention: Detection, emb: Array[Double])

/** Occurrence mining (paper Sec. V-A + V-B): scan every tweet-sentence
  * against the broadcast CTrie of seed candidates, recover all mentions
  * (including ones Local EMD missed, and corrected partials), and attach a
  * local candidate embedding to each:
  *
  *   - deep Local EMD: mean of the system's token embeddings over the
  *     mention span (Eq. 1), then the trained Phrase Embedder dense layer
  *     (Eq. 2);
  *   - non-deep Local EMD: the 6-dim syntactic capitalization embedding.
  */
object MentionExtractor {

  def mentionsOf(tweet: Tweet,
                 trie: CTrie,
                 system: LocalEmd,
                 datasetSeed: Long,
                 phraseEmbedder: Option[PhraseEmbedder]): Seq[MentionEmb] = {
    trie.scan(tweet.tokens.toIndexedSeq).map { case (start, len) =>
      val emb =
        if (system.deep) {
          val pooled = TokenEmbedder.phraseMean(system.dim, system.params.salt, datasetSeed, tweet, start, len)
          phraseEmbedder.map(_.embed(pooled)).getOrElse(pooled)
        } else Syn.embed(tweet.tokens, start, len)
      MentionEmb(Detection.of(tweet, start, len), emb)
    }
  }

  /** [[mentionsOf]] against the broadcast trie, for use inside Spark tasks. */
  def miner(trie: Broadcast[CTrie],
            system: LocalEmd,
            datasetSeed: Long,
            phraseEmbedder: Option[PhraseEmbedder]): Tweet => Seq[MentionEmb] = {
    require(!system.deep || phraseEmbedder.isDefined,
      s"deep system ${system.name} requires a trained PhraseEmbedder")
    t => mentionsOf(t, trie.value, system, datasetSeed, phraseEmbedder)
  }

  /** Distributed scan: one pass over the tweets with the broadcast trie. */
  def mine(tweets: Dataset[Tweet],
           trie: Broadcast[CTrie],
           system: LocalEmd,
           datasetSeed: Long,
           phraseEmbedder: Option[PhraseEmbedder]): Dataset[MentionEmb] = {
    val spark = tweets.sparkSession
    import spark.implicits._
    tweets.flatMap(miner(trie, system, datasetSeed, phraseEmbedder))
  }
}
