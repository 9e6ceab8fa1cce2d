package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments.Table3Row

/** Reproduces Table III: effectiveness and execution time of the four Local
  * EMD systems with and without EMD Globalizer on all six evaluation
  * datasets. Prints measured rows next to the paper's and asserts the
  * paper's qualitative shape.
  */
class Table3Bench extends SparkSpec {

  private lazy val rows: Seq[Table3Row] = Experiments.table3(spark)

  private val streamingSets = Set("D1", "D2", "D3", "D4")
  private def streaming(rs: Seq[Table3Row]) = rs.filter(r => streamingSets.contains(r.dataset))
  private def nonStreaming(rs: Seq[Table3Row]) = rs.filterNot(r => streamingSets.contains(r.dataset))

  test("Table III: effectiveness and execution time with EMD Globalizer") {
    println("\n===== Table III (measured) =====")
    println(Experiments.renderTable3(rows))
    println("\n===== Table III (paper reference: localF1 -> globalF1, gain%) =====")
    rows.foreach { r =>
      val p = PaperNumbers.table3((r.dataset, r.system))
      println(f"${r.dataset}%-8s ${r.system}%-16s paper: ${p._3}%4.2f -> ${p._6}%4.2f (${p._7}%5.1f%%)   " +
        f"measured: ${r.localF1}%4.2f -> ${r.globalF1}%4.2f (${r.f1GainPct}%5.1f%%)")
    }
    println(f"\nAverage F1 gain, all datasets: measured=${Experiments.avgGain(rows)}%.2f%% paper=${PaperNumbers.avgGainAll}%.2f%%")
    println(f"Average F1 gain, streaming:    measured=${Experiments.avgGain(streaming(rows))}%.2f%% paper=${PaperNumbers.avgGainStreaming}%.2f%%")
    println(f"Average F1 gain, non-streaming: measured=${Experiments.avgGain(nonStreaming(rows))}%.2f%% paper=${PaperNumbers.avgGainNonStreaming}%.2f%%")
    Experiments.avgGainPerSystem(rows).toSeq.sortBy(_._1).foreach { case (sys, g) =>
      println(f"Average F1 gain, $sys%-16s measured=$g%.2f%% paper=${PaperNumbers.avgGainPerSystem(sys)}%.2f%%")
    }
    assert(rows.size == 24)
  }

  test("EMD Globalizer improves F1 for every (dataset, system) pair") {
    rows.foreach { r =>
      assert(r.globalF1 > r.localF1,
        s"${r.dataset}/${r.system}: global=${r.globalF1} local=${r.localF1}")
    }
  }

  test("average gain is substantial (paper: 25.61% overall)") {
    val g = Experiments.avgGain(rows)
    assert(g > 10.0, s"avg gain=$g%")
  }

  test("streaming datasets gain more than non-streaming datasets (paper: 30.29% vs 15.53%)") {
    val s = Experiments.avgGain(streaming(rows))
    val ns = Experiments.avgGain(nonStreaming(rows))
    assert(s > ns, s"streaming=$s non-streaming=$ns")
  }

  test("weak local systems gain more than the strongest (paper: NP Chunker 36.69% vs Aguilar 11.91%)") {
    val bySystem = Experiments.avgGainPerSystem(rows)
    assert(bySystem("NP Chunker") > bySystem("Aguilar et al."),
      s"chunker=${bySystem("NP Chunker")} aguilar=${bySystem("Aguilar et al.")}")
  }

  test("Aguilar et al. has the best average local F1 (paper ordering)") {
    val avgLocal = rows.groupBy(_.system).view.mapValues(rs => rs.map(_.localF1).sum / rs.size).toMap
    assert(avgLocal("Aguilar et al.") == avgLocal.values.max, s"$avgLocal")
  }

  test("Global EMD improves both precision and recall on streaming datasets (deep systems)") {
    streaming(rows).filter(r => Set("Aguilar et al.", "BERTweet").contains(r.system)).foreach { r =>
      assert(r.globalP > r.localP, s"${r.dataset}/${r.system} precision did not improve")
      assert(r.globalR > r.localR, s"${r.dataset}/${r.system} recall did not improve")
    }
  }

  test("time overhead is a few seconds for every (dataset, system) pair") {
    // The paper's overheads range 1–14 s and grow with dataset size; at our
    // scale Spark's fixed per-job costs dominate the per-tweet work, so we
    // assert the paper's headline claim (absolute overhead is a few seconds)
    // and report the size trend rather than asserting it.
    rows.foreach { r =>
      assert(r.overheadSec > 0, s"${r.dataset}/${r.system} no overhead measured")
      assert(r.overheadSec < 60, s"${r.dataset}/${r.system} overhead=${r.overheadSec}s")
    }
    rows.groupBy(_.system).foreach { case (sys, rs) =>
      val trend = rs.sortBy(_.dataset).map(r => f"${r.dataset}=${r.overheadSec}%.1fs").mkString(" ")
      println(s"overhead trend $sys: $trend")
    }
  }

  test("per-(dataset, system) gain has the same sign as the paper (all positive)") {
    rows.foreach { r =>
      val paperGain = PaperNumbers.table3((r.dataset, r.system))._7
      assert(r.f1GainPct > 0 && paperGain > 0)
    }
  }
}
