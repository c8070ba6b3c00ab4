package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.{ExpData, Experiments}

/** Table 5 — SRS / RCS / WCS / TWCS on MOVIE, NELL, YAGO.
  *
  * Paper (hours): MOVIE  SRS 3.53, RCS >5*, WCS >5*, TWCS 1.4   (*5h cap)
  *                NELL   SRS 2.30±0.45, RCS 8.25±2.55, WCS 1.92±0.62, TWCS 1.85±0.6
  *                YAGO   SRS 0.45±0.17, RCS 10±0.56,  WCS 0.49±0.04, TWCS 0.44±0.07
  * Estimates stay within ~3% of gold accuracy everywhere (except capped runs).
  */
class Table5Bench extends AnyFunSuite {

  private lazy val (results, lines) = Experiments.table5()

  test("Table 5 report") {
    info("== Table 5: static KG evaluation (hours, estimate, converged fraction) ==")
    info(s"   optimal m: MOVIE=${Experiments.optimalM(ExpData.Movie)} " +
      s"NELL=${Experiments.optimalM(ExpData.Nell)} " +
      s"YAGO=${Experiments.optimalM(ExpData.Yago)}")
    lines.foreach(info(_))
    assert(results.size == 12)
  }

  test("TWCS is the cheapest design on MOVIE (paper: 60% below SRS)") {
    val srs  = results(("MOVIE", "SRS")).meanCostHours
    val twcs = results(("MOVIE", "TWCS")).meanCostHours
    assert(twcs < srs * 0.75, s"TWCS $twcs vs SRS $srs")
    assert(twcs < results(("MOVIE", "WCS")).meanCostHours)
    assert(twcs < results(("MOVIE", "RCS")).meanCostHours)
  }

  test("RCS and WCS are prohibitively expensive on MOVIE (paper: stopped at >5h)") {
    // RCS rides the 5-hour cap in essentially every run and still fails the
    // 5%-MoE bar (its estimate sd is far above 5%)
    val rcs = results(("MOVIE", "RCS"))
    assert(rcs.meanCostHours >= 4.5, s"RCS ${rcs.meanCostHours}")
    assert(rcs.convergedFrac < 0.2)
    assert(rcs.sdEstimate > 0.05)
    // WCS annotates whole (size-biased) clusters: several times TWCS's cost,
    // with a sizable fraction of runs hitting the cap
    val wcs = results(("MOVIE", "WCS"))
    assert(wcs.meanCostHours > 2 * results(("MOVIE", "TWCS")).meanCostHours,
      s"WCS ${wcs.meanCostHours}")
  }

  test("TWCS beats SRS on NELL; RCS is by far the worst (paper: 8.25h vs ~2h)") {
    val srs = results(("NELL", "SRS")).meanCostHours
    val twcs = results(("NELL", "TWCS")).meanCostHours
    val rcs = results(("NELL", "RCS")).meanCostHours
    assert(twcs < srs, s"TWCS $twcs vs SRS $srs")
    assert(rcs > 2 * srs, s"RCS $rcs vs SRS $srs")
  }

  test("WCS tracks TWCS on NELL (small clusters: second stage saves little)") {
    val wcs  = results(("NELL", "WCS")).meanCostHours
    val twcs = results(("NELL", "TWCS")).meanCostHours
    assert(math.abs(wcs - twcs) < 0.6 * twcs, s"WCS $wcs vs TWCS $twcs")
  }

  test("YAGO (99% accurate) needs under an hour for SRS/WCS/TWCS but RCS explodes") {
    Seq("SRS", "WCS", "TWCS").foreach { mth =>
      assert(results(("YAGO", mth)).meanCostHours < 1.0, mth)
    }
    assert(results(("YAGO", "RCS")).meanCostHours > 3.0)
  }

  test("all converged estimates stay within 3% of gold accuracy") {
    val gold = Map(
      "MOVIE" -> ExpData.Movie.accuracy,
      "NELL"  -> ExpData.Nell.accuracy,
      "YAGO"  -> ExpData.Yago.accuracy)
    results.foreach { case ((kgName, mth), st) =>
      if (st.convergedFrac > 0.9) {
        assert(math.abs(st.meanEstimate - gold(kgName)) < 0.03, s"$kgName/$mth ${st.meanEstimate}")
      }
    }
  }

  test("the empirical YAGO CI is capped at 100% (paper reports 96.7%-100%)") {
    val st = results(("YAGO", "TWCS"))
    assert(st.estP97p5 <= 1.0 + 1e-9)
    assert(st.estP2p5 > 0.93)
  }
}
