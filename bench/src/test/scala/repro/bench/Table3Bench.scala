package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.Experiments

/** Table 3 — data characteristics of the synthetic KGs vs the paper's.
  *
  * Paper: NELL 817 entities / 1,860 triples / 2.3 avg / 91%;
  *        YAGO 822 / 1,386 / 1.7 / 99%;
  *        MOVIE 288,770 / 2,653,870 / 9.2 / 90% (5% MoE).
  */
class Table3Bench extends AnyFunSuite {

  private lazy val (stats, lines) = Experiments.table3()

  test("Table 3 report") {
    info("== Table 3: data characteristics ==")
    lines.foreach(info(_))
    assert(stats.size == 3)
  }

  test("NELL-like characteristics match the paper") {
    val s = stats.find(_.name == "NELL-like").get
    assert(s.entities == 817)
    assert(s.triples > 1500 && s.triples < 2400)
    assert(s.avgClusterSize > 1.8 && s.avgClusterSize < 2.8)
    assert(s.goldAccuracy > 0.86 && s.goldAccuracy < 0.95)
  }

  test("YAGO-like characteristics match the paper") {
    val s = stats.find(_.name == "YAGO-like").get
    assert(s.entities == 822)
    assert(s.avgClusterSize > 1.45 && s.avgClusterSize < 1.95)
    assert(s.goldAccuracy > 0.975)
  }

  test("MOVIE-like characteristics match the paper") {
    val s = stats.find(_.name == "MOVIE-like").get
    assert(s.entities == 288770)
    assert(s.triples > 2000000L && s.triples < 3500000L)
    assert(s.avgClusterSize > 6 && s.avgClusterSize < 13)
    assert(s.goldAccuracy > 0.88 && s.goldAccuracy < 0.92)
  }
}
