package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper

class VarianceSpec extends AnyFunSuite with PropHelper {
  private val z95 = Stats.zAlpha(0.05)

  private val genKg: Gen[KGSummary] = for {
    n        <- Gen.choose(3, 40)
    clusters <- Gen.listOfN(n, for {
      size <- Gen.choose(1, 30)
      tau  <- Gen.choose(0, size)
    } yield (size, tau))
  } yield KGSummary(clusters.zipWithIndex.map { case ((s, t), i) =>
    Cluster(i.toLong, s, t)
  }.toArray)

  test("Proposition 2: V(1) equals the SRS (with-replacement) variance mu(1-mu)") {
    // TWCS with m = 1 is equivalent to SRS: Var(mu_hat_{w,1}) = mu(1-mu)/n.
    checkProp(Prop.forAll(genKg) { kg =>
      val mu = kg.accuracy
      math.abs(Variance.vOfM(kg, 1) - mu * (1 - mu)) < 1e-9
    })
  }

  test("V(m) is the pure between-cluster term once m covers every cluster") {
    val kg = KGSummary(Array(Cluster(1, 3, 3), Cluster(2, 4, 2), Cluster(3, 2, 1)))
    val mu = kg.accuracy
    val between = kg.clusters.map(c => c.size * math.pow(c.accuracy - mu, 2)).sum / kg.numTriples
    assert(math.abs(Variance.vOfM(kg, 10) - between) < 1e-12)
  }

  test("V(m) is zero for a perfectly homogeneous KG") {
    val kg = KGSummary(Array(Cluster(1, 4, 4), Cluster(2, 2, 2), Cluster(3, 6, 6)))
    assert(Variance.vOfM(kg, 3) == 0.0)
  }

  test("property: V(m) is non-increasing in m") {
    checkProp(Prop.forAll(genKg, Gen.choose(1, 19)) { (kg, m) =>
      Variance.vOfM(kg, m + 1) <= Variance.vOfM(kg, m) + 1e-12
    })
  }

  test("vOfM rejects m < 1") {
    val kg = KGSummary(Array(Cluster(1, 2, 1)))
    intercept[IllegalArgumentException](Variance.vOfM(kg, 0))
  }

  test("twcsVariance divides V(m) by the number of first-stage draws") {
    val kg = KGSummary(Array(Cluster(1, 5, 3), Cluster(2, 7, 7), Cluster(3, 2, 0)))
    assert(math.abs(Variance.twcsVariance(kg, 10, 3) - Variance.vOfM(kg, 3) / 10) < 1e-15)
  }

  test("twcsRequiredN shrinks as the MoE target loosens") {
    val kg = KGSummary(Array(Cluster(1, 5, 3), Cluster(2, 7, 7), Cluster(3, 2, 0),
      Cluster(4, 9, 4), Cluster(5, 3, 3)))
    val tight = Variance.twcsRequiredN(kg, 5, eps = 0.02, z95)
    val loose = Variance.twcsRequiredN(kg, 5, eps = 0.10, z95)
    assert(tight > loose)
  }

  test("optimalM stays within the searched range") {
    checkProp(Prop.forAll(genKg) { kg =>
      val m = Variance.optimalM(kg, 0.05, z95)
      m >= 1 && m <= 20
    }, minTests = 30)
  }

  test("optimalM exceeds 1 when clusters are large and entity identification dominates") {
    // many large, moderately heterogeneous clusters: amortizing c1 over m
    // triples beats SRS (the Fig 6 regime where m* falls around 3-5)
    val rng = new scala.util.Random(42)
    val kg = KGSummary(Array.tabulate(400) { i =>
      val size = 20 + rng.nextInt(30)
      Cluster(i.toLong, size, (size * (0.8 + 0.2 * rng.nextDouble())).toInt)
    })
    assert(Variance.optimalM(kg, 0.05, z95) > 1)
  }

  test("srsRequiredN reproduces the closed form at 90% accuracy") {
    // n = 0.9*0.1*1.96^2/0.05^2 = 138.3 -> 139
    assert(Variance.srsRequiredN(0.9, 0.05, z95) == 139)
  }

  test("srsRequiredN peaks at 50% accuracy") {
    val ns = Seq(0.1, 0.3, 0.5, 0.7, 0.9).map(mu => Variance.srsRequiredN(mu, 0.05, z95))
    assert(ns(2) == ns.max)
  }

  test("srsExpectedEntities is bounded by min(n_s, N) and positive") {
    checkProp(Prop.forAll(genKg, Gen.choose(1, 200)) { (kg, ns) =>
      val e = Variance.srsExpectedEntities(kg, ns)
      e > 0 && e <= math.min(ns, kg.numClusters) + 1e-9
    })
  }

  test("srsExpectedEntities approaches N as the sample grows") {
    val kg = KGSummary(Array.tabulate(20)(i => Cluster(i.toLong, 2, 1)))
    assert(Variance.srsExpectedEntities(kg, 10000) > 19.99)
  }

  test("srsExpectedCost grows monotonically with the sample size") {
    val kg = KGSummary(Array.tabulate(50)(i => Cluster(i.toLong, 3, 2)))
    val costs = Seq(10, 50, 100, 200).map(Variance.srsExpectedCost(kg, _))
    assert(costs == costs.sorted)
  }

  test("twcsCostUpperBound at the paper's constants matches n*(c1+m*c2)") {
    val kg = KGSummary(Array(Cluster(1, 10, 6), Cluster(2, 10, 10), Cluster(3, 10, 3)))
    val m = 4
    val n = Variance.vOfM(kg, m) * z95 * z95 / (0.05 * 0.05)
    assert(math.abs(Variance.twcsCostUpperBound(kg, m, 0.05, z95) - n * (45 + 4 * 25)) < 1e-9)
  }
}
