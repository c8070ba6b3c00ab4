package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** One reproduced table end to end: the cell runner, Table 4's seeds and the
  * RNG order of SRS and TWCS must give the rows of `bench/bench_output.txt`.
  */
class ExperimentsSpec extends AnyFunSuite {

  test("Table 4 prints the committed rows") {
    val (results, lines) = Experiments.table4()
    assert(results.keys.toSeq == Seq(("MOVIE", "SRS"), ("MOVIE", "TWCS(m=10)")))
    assert(results.values.forall(_.trials == 200))
    assert(lines == Seq(
      "method       entities  triples  hours  estimate",
      "SRS             140.7    140.9   2.74     91.0%",
      "TWCS(m=10)       17.2    150.0   1.26     91.5%"))
  }
}
