package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper

class VarianceSpec extends AnyFunSuite with PropHelper {
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

  test("optimalM stays within the searched range") {
    checkProp(Prop.forAll(genKg) { kg =>
      val m = Variance.optimalM(kg)
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
    assert(Variance.optimalM(kg) > 1)
  }
}
