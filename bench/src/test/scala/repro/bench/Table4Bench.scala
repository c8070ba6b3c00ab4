package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.Experiments

/** Table 4 — manual evaluation cost on MOVIE.
  *
  * Paper: SRS 174 entities / 174 triples, 3.53 h (measured), estimate 88%;
  *        TWCS(m=10) 24 entities / 178 triples, 1.4 h, estimate 90%.
  */
class Table4Bench extends AnyFunSuite {

  private lazy val (results, lines) = Experiments.table4()
  private lazy val srs  = results(("MOVIE", "SRS"))
  private lazy val twcs = results(("MOVIE", "TWCS(m=10)"))

  test("Table 4 report") {
    info("== Table 4: manual evaluation cost on MOVIE ==")
    lines.foreach(info(_))
    assert(results.size == 2)
  }

  test("SRS samples roughly one entity per triple") {
    assert(srs.meanEntities > srs.meanTriples * 0.9, "almost every SRS triple hits a new entity")
    assert(srs.meanTriples > 100 && srs.meanTriples < 220)
  }

  test("TWCS(m=10) samples far fewer entities than SRS at similar triple counts") {
    assert(twcs.meanEntities < srs.meanEntities * 0.35, s"${twcs.meanEntities} vs ${srs.meanEntities}")
  }

  test("TWCS roughly halves the annotation time (paper: 1.4h vs 3.53h)") {
    assert(twcs.meanCostHours < srs.meanCostHours * 0.7, s"${twcs.meanCostHours} vs ${srs.meanCostHours}")
  }

  test("both estimates are unbiased for the 90% gold accuracy") {
    results.foreach { case (cell, st) => assert(math.abs(st.meanEstimate - 0.9) < 0.03, s"$cell $st") }
  }
}
