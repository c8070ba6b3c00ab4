package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.Experiments

/** Evolving-KG evaluation (the paper's §7.3, Figs 8 and 9 rendered as tables).
  *
  * Paper claims: SS < RS < Baseline per-update cost; SS saves 20-67% vs RS and
  * up to ~80% vs Baseline; both RS and SS are unbiased along a 30-batch
  * sequence; after a bad initial estimate RS recovers within 5-10 batches
  * while SS barely does.
  */
class EvolvingBench extends AnyFunSuite {

  private lazy val (singleRows, singleLines) = Experiments.evolvingSingleBatch()
  private lazy val (unbiased, faults, seqLines) = Experiments.evolvingSequence()

  test("single-batch report (Fig 8 as a table)") {
    info("== Evolving KG: single update batch (mean hours per update) ==")
    singleLines.foreach(info(_))
    assert(singleRows.size == 9)
  }

  test("SS is the cheapest and Baseline the most expensive at every update size") {
    singleRows.filter(_.setting.contains("acc=90%")).foreach { r =>
      assert(r.ssH < r.rsH, s"${r.setting}: SS ${r.ssH} vs RS ${r.rsH}")
      assert(r.rsH < r.baselineH, s"${r.setting}: RS ${r.rsH} vs Baseline ${r.baselineH}")
    }
  }

  test("SS saves the bulk of the Baseline cost (paper: up to ~80%)") {
    val r = singleRows.find(_.setting == "size=10% acc=90%").get
    assert(r.ssH < r.baselineH * 0.45, s"SS ${r.ssH} vs Baseline ${r.baselineH}")
  }

  test("RS cost grows with the update size (Prop 3: more reservoir turnover)") {
    val byFrac = Seq("size=10% acc=90%", "size=50% acc=90%")
      .map(s => singleRows.find(_.setting == s).get.rsH)
    assert(byFrac(1) > byFrac(0), s"RS at 50% ${byFrac(1)} vs at 10% ${byFrac(0)}")
  }

  test("SS cost peaks when the update accuracy approaches 50%") {
    def ss(acc: Int) = singleRows.find(_.setting == s"size=50% acc=$acc%").get.ssH
    assert(ss(40) > ss(80), s"acc=40 ${ss(40)} vs acc=80 ${ss(80)}")
    assert(ss(60) > ss(80), s"acc=60 ${ss(60)} vs acc=80 ${ss(80)}")
  }

  test("sequence report (Fig 9 as a table)") {
    info("== Evolving KG: sequence of 30 updates ==")
    seqLines.foreach(info(_))
    assert(unbiased("RS").size == 30 && unbiased("SS").size == 30)
  }

  test("both RS and SS stay unbiased along the sequence (Fig 9-1)") {
    Seq("RS", "SS").foreach { m =>
      val tail = unbiased(m).drop(5)
      tail.foreach(e => assert(math.abs(e - 0.9) < 0.025, s"$m estimate $e"))
    }
  }

  test("RS recovers from a bad initial estimate; SS hardly does (Fig 9-2/9-3)") {
    // trajectories are residual bias (signed, averaged over runs)
    Seq("over", "under").foreach { dir =>
      val rs = faults(s"RS-$dir")._1.map(math.abs)
      val ss = faults(s"SS-$dir")._1.map(math.abs)
      // RS sheds most of the injected bias by the end of the sequence...
      assert(rs(29) < rs.head * 0.7 + 0.005, s"$dir: RS ${rs.head} -> ${rs(29)}")
      // ...while SS only dilutes it (W_G shrinks) and keeps most mid-sequence
      val ssMid = (4 to 14).map(ss(_)).sum / 11
      assert(ssMid > ss.head * 0.45, s"$dir: SS ${ss.head} -> mid $ssMid")
    }
    // the unclamped under direction starts both methods at a comparable -6%:
    // RS is at least as recovered as SS through the middle of the sequence
    val rsU = faults("RS-under")._1.map(math.abs)
    val ssU = faults("SS-under")._1.map(math.abs)
    Seq(4, 9).foreach { b =>
      assert(rsU(b) < ssU(b) + 0.01, s"b${b + 1}: RS ${rsU(b)} vs SS ${ssU(b)}")
    }
  }

  test("RS re-randomizes its sample pool; SS trajectories are dilution-smooth") {
    // the mechanism behind the paper's fault-tolerance claim: an individual
    // RS run can jump away from a bad start, an SS run cannot
    Seq("over", "under").foreach { dir =>
      val rsVol = faults(s"RS-$dir")._2
      val ssVol = faults(s"SS-$dir")._2
      assert(rsVol > 2 * ssVol, s"$dir: RS vol $rsVol vs SS vol $ssVol")
    }
  }
}
