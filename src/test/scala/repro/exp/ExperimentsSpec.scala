package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** Reproduced tables end to end: the seeds and RNG order of each must give
  * its rows in `bench/bench_output.txt`.
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

  test("optimalM gives each standard KG's m*") {
    // Eq 12's m*, which Tables 5-7 run with; Table 5 prints MOVIE's, NELL's and YAGO's
    assert(Experiments.optimalM(ExpData.Nell) == 2)
    assert(Experiments.optimalM(ExpData.Yago) == 2)
    assert(Experiments.optimalM(ExpData.Movie) == 5)
    assert(Experiments.optimalM(ExpData.MovieSyn) == 3)
    assert(Experiments.optimalM(ExpData.MovieHalf) == 5)
  }

  test("Fig 8's single-batch table prints the committed rows") {
    // Baseline, RS and SS each start from the batch's RNG, in that order
    val (rows, lines) = Experiments.evolvingSingleBatch()
    assert(rows.size == 9)
    assert(lines.tail == Seq(
      "size=10% acc=90%               1.46     0.49     0.22        90.0%",
      "size=20% acc=90%               1.40     0.58     0.25        90.0%",
      "size=30% acc=90%               1.32     0.55     0.27        90.0%",
      "size=40% acc=90%               1.45     0.82     0.29        90.0%",
      "size=50% acc=90%               1.45     0.99     0.30        90.0%",
      "size=50% acc=20%               9.65     8.69     0.50        66.7%",
      "size=50% acc=40%               6.00     5.27     0.77        73.3%",
      "size=50% acc=60%               3.72     2.97     0.72        80.0%",
      "size=50% acc=80%               1.94     1.22     0.53        86.7%"))
  }
}
