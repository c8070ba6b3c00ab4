package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.Experiments

/** Table 4 — manual evaluation cost on MOVIE.
  *
  * Paper: SRS 174 entities / 174 triples, 3.53 h (measured), estimate 88%;
  *        TWCS(m=10) 24 entities / 178 triples, 1.4 h, estimate 90%.
  */
class Table4Bench extends AnyFunSuite {

  private lazy val (rows, lines) = Experiments.table4()

  test("Table 4 report") {
    info("== Table 4: manual evaluation cost on MOVIE ==")
    lines.foreach(info(_))
    assert(rows.size == 2)
  }

  test("SRS samples roughly one entity per triple") {
    val srs = rows.find(_.method == "SRS").get
    assert(srs.entities > srs.triples * 0.9, "almost every SRS triple hits a new entity")
    assert(srs.triples > 100 && srs.triples < 220)
  }

  test("TWCS(m=10) samples far fewer entities than SRS at similar triple counts") {
    val srs  = rows.find(_.method == "SRS").get
    val twcs = rows.find(_.method == "TWCS(m=10)").get
    assert(twcs.entities < srs.entities * 0.35, s"${twcs.entities} vs ${srs.entities}")
  }

  test("TWCS roughly halves the annotation time (paper: 1.4h vs 3.53h)") {
    val srs  = rows.find(_.method == "SRS").get
    val twcs = rows.find(_.method == "TWCS(m=10)").get
    assert(twcs.hours < srs.hours * 0.7, s"${twcs.hours} vs ${srs.hours}")
  }

  test("both estimates are unbiased for the 90% gold accuracy") {
    rows.foreach(r => assert(math.abs(r.estimate - 0.9) < 0.03, r.toString))
  }
}
