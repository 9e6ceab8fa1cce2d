package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.HireNer
import repro.core._
import repro.data.TweetGen
import repro.emd.{Aguilar, LocalEmd}
import repro.nn.MlpClassifier

import scala.collection.mutable

/** Harness producing the paper's evaluation tables (I–IV). Shared by the
  * spark-submit entrypoints in jobs/ and the bench suites in bench/.
  */
object Experiments {

  // ---------------------------------------------------------------- caching

  /** Trained framework instances are expensive (D5 pipeline + classifier
    * training); benches and jobs running in one JVM share them here.
    */
  object TrainedCache {
    private val cache = mutable.Map.empty[String, Training.Trained]
    def get(spark: SparkSession, system: LocalEmd): Training.Trained =
      synchronized(cache.getOrElseUpdate(system.name, Training.trainFor(spark, system)))

    private var hire: Option[MlpClassifier] = None
    def hireDecoder(spark: SparkSession): MlpClassifier =
      synchronized { hire.getOrElse { val d = HireNer.train(spark, Aguilar); hire = Some(d); d } }
  }

  // ---------------------------------------------------------------- table 1

  final case class Table1Row(dataset: String, nTweets: Long, nEntities: Long,
                             nMentions: Long, mentionsPerEntity: Double, streaming: Boolean)

  /** Dataset statistics in one narrow job: each partition returns its tweet
    * count, mention count and entity-id set, and the driver merges them.
    */
  def table1Stats(spark: SparkSession, spec: TweetGen.Spec): Table1Row = {
    val parts = TweetGen.tweets(spark.sparkContext, spec).mapPartitions { ts =>
      val gold = ts.map(_.gold).toVector
      Iterator.single((gold.size.toLong, gold.map(_.size.toLong).sum, gold.flatMap(_.map(_.entityId)).toSet))
    }.collect()
    val nMentions = parts.map(_._2).sum
    val nEntities = parts.flatMap(_._3).toSet.size.toLong
    Table1Row(spec.name, parts.map(_._1).sum, nEntities, nMentions,
      if (nEntities == 0) 0.0 else nMentions.toDouble / nEntities, spec.streaming)
  }

  def table1(spark: SparkSession): Seq[Table1Row] =
    TweetGen.allSpecs.map(table1Stats(spark, _))

  def renderTable1(rows: Seq[Table1Row]): String = {
    val header = f"${"Dataset"}%-8s ${"#Tweets"}%8s ${"#Entities"}%10s ${"#Mentions"}%10s ${"M/E"}%6s ${"Type"}%12s"
    val body = rows.map { r =>
      f"${r.dataset}%-8s ${r.nTweets}%8d ${r.nEntities}%10d ${r.nMentions}%10d ${r.mentionsPerEntity}%6.2f ${if (r.streaming) "streaming" else "non-streaming"}%12s"
    }
    (header +: body).mkString("\n")
  }

  // ---------------------------------------------------------------- table 2

  final case class Table2Row(system: String, systemType: String, embeddingSize: String,
                             validationF1: Double, peValidationLoss: Option[Double])

  private val systemTypes = Map(
    "NP Chunker" -> "CRF Chunker",
    "TwitterNLP" -> "CRF EMD Tagger",
    "Aguilar et al." -> "BiLSTM-CNN-CRF",
    "BERTweet" -> "BERT-FFNN")

  def table2(spark: SparkSession): Seq[Table2Row] =
    LocalEmd.all.map { sys =>
      val t = TrainedCache.get(spark, sys)
      Table2Row(sys.name, systemTypes(sys.name), t.embeddingSizeLabel,
        t.classifierValidationF1, t.peValidationLoss)
    }

  def renderTable2(rows: Seq[Table2Row]): String = {
    val header = f"${"Local EMD"}%-16s ${"Type"}%-16s ${"EmbSize"}%8s ${"Val F1"}%7s ${"PE ValLoss"}%11s"
    val body = rows.map { r =>
      f"${r.system}%-16s ${r.systemType}%-16s ${r.embeddingSize}%8s ${r.validationF1}%7.3f ${r.peValidationLoss.map(l => f"$l%.3f").getOrElse("—")}%11s"
    }
    (header +: body).mkString("\n")
  }

  // ---------------------------------------------------------------- table 3

  final case class Table3Row(dataset: String, system: String,
                             localP: Double, localR: Double, localF1: Double, localTimeSec: Double,
                             globalP: Double, globalR: Double, globalF1: Double, totalTimeSec: Double,
                             f1GainPct: Double, overheadSec: Double)

  def table3Row(spark: SparkSession, spec: TweetGen.Spec, trained: Training.Trained): Table3Row = {
    val out = Globalizer.run(spark, spec, trained.system, trained.classifier, trained.phraseEmbedder)
    val l = out.localEval; val g = out.globalEval
    val gain = if (l.f1 == 0) 0.0 else (g.f1 - l.f1) / l.f1 * 100.0
    Table3Row(spec.name, trained.system.name,
      l.precision, l.recall, l.f1, out.timings.localSec,
      g.precision, g.recall, g.f1, out.timings.totalSec,
      gain, out.timings.globalOverheadSec)
  }

  def table3(spark: SparkSession,
             specs: Seq[TweetGen.Spec] = TweetGen.evalSpecs,
             systems: Seq[LocalEmd] = LocalEmd.all): Seq[Table3Row] =
    for (spec <- specs; sys <- systems) yield table3Row(spark, spec, TrainedCache.get(spark, sys))

  def renderTable3(rows: Seq[Table3Row]): String = {
    val header = f"${"Dataset"}%-8s ${"System"}%-16s | ${"P"}%5s ${"R"}%5s ${"F1"}%5s ${"t(s)"}%7s | ${"P"}%5s ${"R"}%5s ${"F1"}%5s ${"t(s)"}%7s | ${"Gain%"}%7s ${"Ovh(s)"}%7s"
    val body = rows.map { r =>
      f"${r.dataset}%-8s ${r.system}%-16s | ${r.localP}%5.2f ${r.localR}%5.2f ${r.localF1}%5.2f ${r.localTimeSec}%7.2f | ${r.globalP}%5.2f ${r.globalR}%5.2f ${r.globalF1}%5.2f ${r.totalTimeSec}%7.2f | ${r.f1GainPct}%6.1f%% ${r.overheadSec}%7.2f"
    }
    (header +: body).mkString("\n")
  }

  /** Average F1 gain over a set of rows (the paper's summary statistics). */
  def avgGain(rows: Seq[Table3Row]): Double = rows.map(_.f1GainPct).sum / rows.size

  /** Average F1 gain per Local EMD system. */
  def avgGainPerSystem(rows: Seq[Table3Row]): Map[String, Double] =
    rows.groupBy(_.system).view.mapValues(rs => rs.map(_.f1GainPct).sum / rs.size).toMap

  // ---------------------------------------------------------------- table 4

  final case class Table4Row(dataset: String, system: String, p: Double, r: Double, f1: Double)

  def table4(spark: SparkSession): Seq[Table4Row] = {
    val trained = TrainedCache.get(spark, Aguilar)
    val decoder = TrainedCache.hireDecoder(spark)
    TweetGen.evalSpecs.flatMap { spec =>
      val glob = Globalizer.run(spark, spec, Aguilar, trained.classifier, trained.phraseEmbedder,
        chargeEmbeddingCost = false).globalEval
      val hire = Metrics.score(HireNer.run(spark, spec, Aguilar, decoder),
        Metrics.goldSpans(TweetGen.tweets(spark.sparkContext, spec)))
      Seq(
        Table4Row(spec.name, "EMD Globalizer", glob.precision, glob.recall, glob.f1),
        Table4Row(spec.name, "HIRE-NER", hire.precision, hire.recall, hire.f1))
    }
  }

  def renderTable4(rows: Seq[Table4Row]): String = {
    val header = f"${"Dataset"}%-8s ${"Global EMD System"}%-18s ${"P"}%5s ${"R"}%5s ${"F1"}%5s"
    val body = rows.map(r => f"${r.dataset}%-8s ${r.system}%-18s ${r.p}%5.2f ${r.r}%5.2f ${r.f1}%5.2f")
    (header +: body).mkString("\n")
  }
}
