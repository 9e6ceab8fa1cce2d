package repro.core

import repro.SparkSpec
import repro.data.TweetGen
import repro.emd.{Aguilar, BerTweet, NpChunker, TwitterNlp}

class MentionExtractorSpec extends SparkSpec {

  private val spec = TweetGen.DevStream
  private lazy val tweets = TweetGen.generateLocal(spec)

  private def seedTrie(sys: repro.emd.LocalEmd): CTrie = {
    val keys = tweets.flatMap(t => sys.detect(t, spec.hardness, spec.seed)).map(_.key).distinct
    CTrie.fromKeys(keys)
  }

  test("mining finds every locally detected entity's other occurrences") {
    val sys = Aguilar
    val trie = seedTrie(sys)
    val pe = new PhraseEmbedder(sys.dim, sys.dim, 1L)
    val mined = tweets.flatMap(t =>
      MentionExtractor.mentionsOf(t, trie, sys, spec.seed, Some(pe)))
    val localSpans = tweets.flatMap(t => sys.detect(t, spec.hardness, spec.seed))
      .map(d => (d.tweetId, d.start, d.len)).toSet
    val minedSpans = mined.map(m => (m.mention.tweetId, m.mention.start, m.mention.len)).toSet
    // Mining recovers strictly more spans than local EMD produced (the
    // paper's false-negative removal), modulo longest-match correction.
    assert(minedSpans.size > localSpans.size)
  }

  test("mining recovers gold mentions that local EMD missed (false-negative removal)") {
    val sys = Aguilar
    val trie = seedTrie(sys)
    val pe = new PhraseEmbedder(sys.dim, sys.dim, 1L)
    val localSpans = tweets.flatMap(t => sys.detect(t, spec.hardness, spec.seed))
      .map(d => (d.tweetId, d.start, d.len)).toSet
    val localKeys = tweets.flatMap(t => sys.detect(t, spec.hardness, spec.seed)).map(_.key).toSet
    val minedSpans = tweets.flatMap(t =>
      MentionExtractor.mentionsOf(t, trie, sys, spec.seed, Some(pe)))
      .map(m => (m.mention.tweetId, m.mention.start, m.mention.len)).toSet
    val recoveredGold = tweets.flatMap { t =>
      t.gold.filter { g =>
        val span = (t.tweetId, g.start, g.len)
        val key = spec.entityKey(g.entityId)
        localKeys.contains(key) && !localSpans.contains(span) && minedSpans.contains(span)
      }
    }
    assert(recoveredGold.nonEmpty, "expected missed gold mentions to be recovered")
  }

  test("partial extraction is corrected when the full candidate is registered") {
    val trie = CTrie.fromKeys(Seq("andy beshear", "andy"))
    val t = Tweet(1L, 0, Seq("gov", "Andy", "Beshear", "said"),
      Seq(GoldSpan(1, 2, 1L)), Seq.empty)
    val ms = MentionExtractor.mentionsOf(t, trie, NpChunker, 11L, None)
    assert(ms.map(m => (m.mention.start, m.mention.len)) == Seq((1, 2)))
    assert(ms.head.mention.key == "andy beshear")
  }

  test("mention key is the lower-cased surface, surface keeps original case") {
    val trie = CTrie.fromKeys(Seq("coronavirus"))
    val t = Tweet(2L, 0, Seq("CORONAVIRUS", "cases"), Seq.empty, Seq.empty)
    val m = MentionExtractor.mentionsOf(t, trie, NpChunker, 11L, None).head
    assert(t.surface(m.mention.start, m.mention.len) == "CORONAVIRUS")
    assert(m.mention.key == "coronavirus")
  }

  test("non-deep systems get 6-dim syntactic embeddings") {
    val trie = CTrie.fromKeys(Seq("coronavirus"))
    val t = Tweet(3L, 0, Seq("the", "Coronavirus", "x"), Seq.empty, Seq.empty)
    Seq(NpChunker, TwitterNlp).foreach { sys =>
      val m = MentionExtractor.mentionsOf(t, trie, sys, 11L, None).head
      assert(m.emb.length == SyntacticEmbedding.Dim)
      assert(m.emb.sum == 1.0)
    }
  }

  test("deep systems get phrase-embedded vectors of the head's output size") {
    val trie = CTrie.fromKeys(Seq("coronavirus"))
    val t = Tweet(4L, 0, Seq("the", "Coronavirus", "x"),
      Seq(GoldSpan(1, 1, 1L)), Seq.empty)
    val pe = new PhraseEmbedder(Aguilar.dim, Aguilar.dim, 2L)
    val m = MentionExtractor.mentionsOf(t, trie, Aguilar, 11L, Some(pe)).head
    assert(m.emb.length == Aguilar.dim)
  }

  test("deep phrase embedding equals dense(mean of token embeddings)") {
    val trie = CTrie.fromKeys(Seq("andy beshear"))
    val t = Tweet(5L, 0, Seq("Andy", "Beshear", "x"), Seq(GoldSpan(0, 2, 1L)), Seq.empty)
    val pe = new PhraseEmbedder(Aguilar.dim, Aguilar.dim, 3L)
    val m = MentionExtractor.mentionsOf(t, trie, Aguilar, 11L, Some(pe)).head
    val expected = pe.embed(repro.emd.TokenEmbedder.phraseMean(Aguilar.dim, Aguilar.params.salt, 11L, t, 0, 2))
    assert(m.emb.toSeq == expected.toSeq)
  }

  test("distributed mining equals single-node mining") {
    val sys = BerTweet
    val trie = seedTrie(sys)
    val pe = new PhraseEmbedder(sys.dim, sys.dim, 4L)
    val local = tweets.flatMap(t =>
      MentionExtractor.mentionsOf(t, trie, sys, spec.seed, Some(pe))).map(_.mention).toSet
    val ds = TweetGen.generate(spark, spec)
    val bc = spark.sparkContext.broadcast(trie)
    val dist = MentionExtractor.mine(ds, bc, sys, spec.seed, Some(pe))
      .collect().map(_.mention).toSet
    assert(dist == local)
  }

  test("mine requires a phrase embedder for deep systems") {
    val ds = TweetGen.generate(spark, spec)
    val bc = spark.sparkContext.broadcast(new CTrie)
    intercept[IllegalArgumentException](
      MentionExtractor.mine(ds, bc, Aguilar, spec.seed, None))
  }

  test("an empty trie mines no mentions") {
    val t = Tweet(6L, 0, Seq("a", "b"), Seq.empty, Seq.empty)
    assert(MentionExtractor.mentionsOf(t, new CTrie, NpChunker, 11L, None).isEmpty)
  }

  test("mining matches case-insensitively across variants of the same entity") {
    val trie = CTrie.fromKeys(Seq("coronavirus"))
    val t = Tweet(7L, 0, Seq("coronavirus", "vs", "CORONAVIRUS", "vs", "Coronavirus"),
      Seq.empty, Seq.empty)
    val ms = MentionExtractor.mentionsOf(t, trie, NpChunker, 11L, None)
    assert(ms.size == 3)
    assert(ms.map(_.mention.key).toSet == Set("coronavirus"))
    assert(ms.map(m => t.surface(m.mention.start, m.mention.len)).toSet == Set("coronavirus", "CORONAVIRUS", "Coronavirus"))
  }
}
