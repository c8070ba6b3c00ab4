package repro.core

import org.scalatest.funsuite.AnyFunSuite

class StratificationSpec extends AnyFunSuite {
  import Stratification._

  test("cumRootF with h=1 yields a single boundary at the max") {
    val b = cumRootFBoundaries(Seq((1.0, 10L), (2.0, 5L), (9.0, 1L)), 1)
    assert(b == Seq(9.0))
  }

  test("cumRootF on a uniform histogram splits evenly") {
    val hist = (1 to 4).map(i => (i.toDouble, 10L))
    val b = cumRootFBoundaries(hist, 2)
    assert(b == Seq(2.0, 4.0))
  }

  test("cumRootF boundaries always cover the maximum value") {
    val hist = Seq((1.0, 100L), (2.0, 50L), (3.0, 10L), (50.0, 1L))
    (1 to 4).foreach { h =>
      assert(cumRootFBoundaries(hist, h).max == 50.0, s"h=$h")
    }
  }

  test("cumRootF uses sqrt of frequency, not frequency") {
    // freqs 81 and 9: sqrt gives 9 vs 3 -> cut lands after first value at h=2
    val b = cumRootFBoundaries(Seq((1.0, 81L), (2.0, 9L)), 2)
    assert(b == Seq(1.0, 2.0))
  }

  test("cumRootF rejects empty histograms and h < 1") {
    intercept[IllegalArgumentException](cumRootFBoundaries(Seq.empty, 2))
    intercept[IllegalArgumentException](cumRootFBoundaries(Seq((1.0, 1L)), 0))
  }

  private val kg = KGSummary(Array(
    Cluster(1, 1, 1), Cluster(2, 1, 0), Cluster(3, 2, 2), Cluster(4, 2, 1),
    Cluster(5, 8, 8), Cluster(6, 9, 7), Cluster(7, 30, 29), Cluster(8, 30, 30)))

  test("partition is complete and disjoint") {
    val strata = sizeStrata(kg, 3)
    val ids = strata.flatMap(_.clusters.map(_.id))
    assert(ids.sorted == kg.clusters.map(_.id).sorted.toSeq)
    assert(ids.distinct.size == ids.size)
  }

  test("size strata group by size ranges") {
    val strata = sizeStrata(kg, 2)
    // within each stratum the max size of a lower stratum is below the min of the next
    val ranges = strata.map(s => (s.clusters.map(_.size).min, s.clusters.map(_.size).max))
    ranges.sliding(2).foreach {
      case Seq((_, hi), (lo, _)) => assert(hi <= lo)
      case _                     =>
    }
  }

  test("stratum weights sum to one and are triple-proportional") {
    val strata = sizeStrata(kg, 3)
    val ws = weights(strata)
    assert(math.abs(ws.sum - 1.0) < 1e-12)
    strata.zip(ws).foreach { case (s, w) =>
      assert(math.abs(w - s.numTriples.toDouble / kg.numTriples) < 1e-12)
    }
  }

  test("oracle strata separate perfect from imperfect clusters") {
    val strata = oracleStrata(kg, 2)
    assert(strata.size >= 2)
    // the top stratum should hold only high-accuracy clusters
    val top = strata.last
    assert(top.clusters.forall(_.accuracy >= 0.9))
  }

  test("single-stratum oracle partition returns everything") {
    val strata = oracleStrata(kg, 1)
    assert(strata.map(_.clusters.length).sum == kg.numClusters)
  }

  test("partition assigns values above the last boundary to the top stratum") {
    val strata = partition(kg, _.size.toDouble, Seq(2.0, 9.0))
    // size-30 clusters exceed boundary 9 but must land in the last stratum
    assert(strata.flatMap(_.clusters).count(_.size == 30) == 2)
    assert(strata.map(_.clusters.length).sum == kg.numClusters)
  }
}
