package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper

import scala.util.Random

class KGSummarySpec extends AnyFunSuite with PropHelper {

  private def sized(sizes: Int*): KGSummary =
    KGSummary(sizes.zipWithIndex.map { case (s, i) => Cluster(i.toLong, s, 0) }.toArray)

  test("numTriples is the sum of the cluster sizes") {
    assert(sized(1, 2, 3).numTriples == 6L)
  }

  test("a cluster of size 0 is rejected") {
    intercept[IllegalArgumentException](Cluster(2, 0, 0))
  }

  test("an empty KG is rejected") {
    intercept[IllegalArgumentException](KGSummary(Array.empty[Cluster]))
  }

  test("a single-cluster KG always draws index 0") {
    val kg = sized(7)
    val rng = new Random(4)
    assert((1 to 100).forall(_ => kg.sizeWeightedIndex(rng) == 0))
  }

  test("sizeWeightedIndex draws clusters in proportion to their sizes") {
    val kg = sized(1, 9, 90)
    val rng = new Random(5)
    val n = 50000
    val counts = new Array[Int](3)
    (1 to n).foreach(_ => counts(kg.sizeWeightedIndex(rng)) += 1)
    assert(math.abs(counts(0).toDouble / n - 0.01) < 0.005)
    assert(math.abs(counts(1).toDouble / n - 0.09) < 0.01)
    assert(math.abs(counts(2).toDouble / n - 0.90) < 0.01)
  }

  test("property: the one-pass totals and draw equal a plain scan") {
    val gen = for {
      n        <- Gen.choose(1, 60)
      clusters <- Gen.listOfN(n, for {
        size <- Gen.choose(1, 50)
        tau  <- Gen.choose(0, size)
      } yield (size, tau))
      seed     <- Gen.choose(0L, 100000L)
    } yield (clusters, seed)
    checkProp(Prop.forAll(gen) { case (clusters, seed) =>
      val kg = KGSummary(clusters.zipWithIndex.map { case ((s, t), i) => Cluster(i.toLong, s, t) }.toArray)
      val m = clusters.map(_._1.toLong).sum
      // reference: the first cluster whose running size sum exceeds ⌊u·M⌋
      val dart = math.floor(new Random(seed).nextDouble() * m).toLong
      val running = clusters.scanLeft(0L)(_ + _._1).tail
      kg.sizeWeightedIndex(new Random(seed)) == running.indexWhere(_ > dart) &&
        kg.numTriples == m &&
        kg.accuracy == clusters.map(_._2.toLong).sum.toDouble / m
    }, minTests = 200)
  }
}
