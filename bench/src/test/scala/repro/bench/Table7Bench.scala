package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.{ExpData, Experiments}

/** Table 7 — TWCS with stratification (cum √F size strata; oracle strata).
  *
  * Paper (hours): NELL       SRS 2.3,  TWCS 1.85, +SizeStrat 1.90, +Oracle 1.04
  *                MOVIE-SYN  SRS 6.99, TWCS 5.25, +SizeStrat 3.97, +Oracle 2.87
  *                MOVIE      SRS 3.53, TWCS 1.4,  +SizeStrat 1.3,  +Oracle N/A
  * Shape: size stratification pays off where accuracy correlates with size
  * (MOVIE-SYN's BMM labels), is a wash on NELL, and oracle stratification
  * lower-bounds the achievable cost.
  */
class Table7Bench extends AnyFunSuite {

  private lazy val (results, lines) = Experiments.table7()

  test("Table 7 report") {
    info("== Table 7: TWCS with stratification ==")
    lines.foreach(info(_))
    assert(results.size == 11) // 4 + 4 + 3 (no oracle column for MOVIE)
  }

  test("MOVIE-SYN: size stratification clearly beats plain TWCS (BMM labels)") {
    val twcs = results(("MOVIE-SYN", "TWCS")).meanCostHours
    val strat = results(("MOVIE-SYN", "TWCS w/ Size Strat")).meanCostHours
    assert(strat < twcs * 0.95, s"strat $strat vs twcs $twcs")
  }

  test("MOVIE-SYN: oracle stratification is the cheapest") {
    val oracle = results(("MOVIE-SYN", "TWCS w/ Oracle Strat")).meanCostHours
    val others = Seq("SRS", "TWCS", "TWCS w/ Size Strat")
      .map(m => results(("MOVIE-SYN", m)).meanCostHours)
    assert(others.forall(oracle < _), s"oracle $oracle vs $others")
  }

  test("MOVIE-SYN: every design beats SRS (its 62% accuracy needs big samples)") {
    val srs = results(("MOVIE-SYN", "SRS")).meanCostHours
    Seq("TWCS", "TWCS w/ Size Strat", "TWCS w/ Oracle Strat").foreach { m =>
      assert(results(("MOVIE-SYN", m)).meanCostHours < srs, m)
    }
  }

  test("NELL: size stratification does not help (accuracy uncorrelated with size)") {
    val twcs  = results(("NELL", "TWCS")).meanCostHours
    val strat = results(("NELL", "TWCS w/ Size Strat")).meanCostHours
    assert(strat < twcs * 1.5 && strat > twcs * 0.6, s"strat $strat vs twcs $twcs")
  }

  test("NELL: oracle stratification still cuts the cost visibly") {
    val twcs   = results(("NELL", "TWCS")).meanCostHours
    val oracle = results(("NELL", "TWCS w/ Oracle Strat")).meanCostHours
    assert(oracle < twcs * 0.9, s"oracle $oracle vs twcs $twcs")
  }

  test("MOVIE: size stratification stays in the same band as plain TWCS") {
    val twcs  = results(("MOVIE", "TWCS")).meanCostHours
    val strat = results(("MOVIE", "TWCS w/ Size Strat")).meanCostHours
    assert(strat < twcs * 1.5, s"strat $strat vs twcs $twcs")
    assert(strat < results(("MOVIE", "SRS")).meanCostHours)
  }

  test("every variant remains unbiased (estimates within 3% of gold)") {
    val gold = Map(
      "NELL"      -> ExpData.Nell.accuracy,
      "MOVIE-SYN" -> ExpData.MovieSyn.accuracy,
      "MOVIE"     -> ExpData.Movie.accuracy)
    results.foreach { case ((kgName, m), st) =>
      assert(math.abs(st.meanEstimate - gold(kgName)) < 0.03, s"$kgName/$m ${st.meanEstimate}")
    }
  }
}
