package repro.exp

import repro.{SparkSpec, TestFixtures}
import repro.data.TweetGen
import repro.emd.NpChunker
import repro.exp.Experiments._

class ExperimentsSpec extends SparkSpec {

  private val row = Table3Row("D1", "BERTweet",
    0.66, 0.49, 0.56, 33.16, 0.84, 0.66, 0.74, 34.32, 32.1, 1.16)

  test("avgGain averages F1 gains") {
    val rows = Seq(row, row.copy(f1GainPct = 10.0))
    assert(math.abs(avgGain(rows) - 21.05) < 1e-9)
  }

  test("avgGainPerSystem groups by system") {
    val rows = Seq(
      row, row.copy(f1GainPct = 10.0),
      row.copy(system = "NP Chunker", f1GainPct = 50.0))
    val g = avgGainPerSystem(rows)
    assert(math.abs(g("BERTweet") - 21.05) < 1e-9)
    assert(g("NP Chunker") == 50.0)
  }

  test("renderTable3 contains every row's dataset and system") {
    val s = renderTable3(Seq(row, row.copy(dataset = "BTC", system = "NP Chunker")))
    assert(s.contains("D1") && s.contains("BERTweet"))
    assert(s.contains("BTC") && s.contains("NP Chunker"))
    assert(s.linesIterator.size == 3) // header + 2 rows
  }

  test("renderTable1 formats streaming flag") {
    val s = renderTable1(Seq(
      Table1Row("D1", 1000, 283, 950, 3.36, streaming = true),
      Table1Row("WNUT17", 1287, 700, 1000, 1.43, streaming = false)))
    assert(s.contains("streaming"))
    assert(s.contains("non-streaming"))
  }

  test("renderTable2 shows a dash for systems without a phrase embedder") {
    val s = renderTable2(Seq(
      Table2Row("NP Chunker", "CRF Chunker", "6+1", 0.936, None),
      Table2Row("BERTweet", "BERT-FFNN", "300+1", 0.941, Some(0.167))))
    assert(s.contains("—"))
    assert(s.contains("0.167"))
  }

  test("renderTable4 lists both systems per dataset") {
    val s = renderTable4(Seq(
      Table4Row("D1", "EMD Globalizer", 0.87, 0.66, 0.75),
      Table4Row("D1", "HIRE-NER", 0.65, 0.62, 0.63)))
    assert(s.contains("EMD Globalizer") && s.contains("HIRE-NER"))
  }

  test("table3Row leaves no Dataset cached") {
    val sc = spark.sparkContext
    val trained = TestFixtures.trained(spark, NpChunker)
    val before = sc.getPersistentRDDs.keySet
    val r = table3Row(spark, TweetGen.DevStream, trained)
    assert(r.globalF1 > r.localF1)
    assert(table1Stats(spark, TweetGen.DevStream).nTweets == TweetGen.DevStream.nTweets)
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("table1Stats is one one-stage job and counts what the local generator holds") {
    val spec = TweetGen.DevStream
    val (r, stages) = stagesPerJob(table1Stats(spark, spec))
    assert(stages == Seq(1), stages)
    val gold = TweetGen.generateLocal(spec).flatMap(_.gold)
    assert((r.nTweets, r.nMentions, r.nEntities) ==
      ((spec.nTweets.toLong, gold.size.toLong, gold.map(_.entityId).distinct.size.toLong)))
  }
}
