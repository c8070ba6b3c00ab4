package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper

class EstimatorsSpec extends AnyFunSuite with PropHelper {
  private val z95 = EvalConfig().z

  // ---- SRS (Eq 5) ----

  test("srs point estimate is the sample proportion") {
    assert(Estimators.srs(correct = 45, n = 50, z95).value == 0.9)
  }

  test("srs MoE matches the closed form z*sqrt(p(1-p)/n)") {
    val e = Estimators.srs(45, 50, z95)
    assert(math.abs(e.moe - z95 * math.sqrt(0.9 * 0.1 / 50)) < 1e-12)
  }

  test("srs with all-correct sample has zero MoE") {
    assert(Estimators.srs(30, 30, z95).moe == 0.0)
  }

  test("srs with empty sample rejects") {
    intercept[IllegalArgumentException](Estimators.srs(0, 0, z95))
  }

  test("property: srs estimate lies in [0,1] and MoE is non-negative") {
    val gen = for { n <- Gen.choose(1L, 1000L); k <- Gen.choose(0L, n) } yield (k, n)
    checkProp(Prop.forAll(gen) { case (k, n) =>
      val e = Estimators.srs(k, n, z95)
      e.value >= 0 && e.value <= 1 && e.moe >= 0
    })
  }

  // ---- mean of draws (Eqs 7/8/9) ----

  test("meanOfDraws point estimate is the mean of per-draw values") {
    assert(Estimators.meanOfDraws(Seq(1.0, 0.5, 0.75, 0.75), z95).value == 0.75)
  }

  test("meanOfDraws MoE matches z*sqrt(s^2/n)") {
    val vs = Seq(1.0, 0.5, 0.75, 0.75)
    val e  = Estimators.meanOfDraws(vs, z95)
    assert(math.abs(e.moe - z95 * math.sqrt(Stats.sampleVariance(vs) / 4)) < 1e-12)
  }

  test("meanOfDraws of a single draw has infinite MoE") {
    assert(Estimators.meanOfDraws(Seq(0.5), z95).moe.isPosInfinity)
  }

  test("meanOfDraws of identical values has (numerically) zero MoE") {
    assert(Estimators.meanOfDraws(Seq.fill(10)(0.9), z95).moe < 1e-7)
  }

  test("meanOfDraws rejects empty input") {
    intercept[IllegalArgumentException](Estimators.meanOfDraws(Seq.empty, z95))
  }

  test("property: larger samples of the same values never widen the CI") {
    val gen = Gen.listOfN(6, Gen.choose(0.0, 1.0))
    checkProp(Prop.forAll(gen) { vs =>
      val once  = Estimators.meanOfDraws(vs, z95)
      val twice = Estimators.meanOfDraws(vs ++ vs, z95)
      twice.moe <= once.moe + 1e-12
    })
  }

  // ---- stratified combination (Eq 13) ----

  test("stratified combines estimates by stratum weight") {
    // |G_h| = 3 and 1 give W_h = 0.75 and 0.25; agreeing draws have variance 0
    val e = Estimators.stratifiedDraws(Seq(3L -> Seq(0.9, 0.9), 1L -> Seq(0.5, 0.5)), z95)
    assert(math.abs(e.value - 0.8) < 1e-12)
    assert(e.moe == 0.0)
  }

  test("stratified MoE matches z*sqrt(sum W_h^2 Var_h)") {
    val (vs1, vs2) = (Seq(1.0, 0.8, 0.9), Seq(0.2, 0.8, 0.5, 0.5))
    val e = Estimators.stratifiedDraws(Seq(6L -> vs1, 4L -> vs2), z95)
    val v = 0.36 * Stats.sampleVariance(vs1) / 3 + 0.16 * Stats.sampleVariance(vs2) / 4
    assert(math.abs(e.value - (0.6 * 0.9 + 0.4 * 0.5)) < 1e-12)
    assert(math.abs(e.moe - z95 * math.sqrt(v)) < 1e-12)
  }

  test("stratified rejects empty strata") {
    intercept[IllegalArgumentException](Estimators.stratifiedDraws(Seq.empty, z95))
  }

  test("single full-weight stratum reduces to its own estimate") {
    val e = Estimators.stratifiedDraws(Seq(50L -> Seq(0.75, 0.79)), z95)
    assert(math.abs(e.value - 0.77) < 1e-12)
    assert(math.abs(e.moe - z95 * 0.02) < 1e-12)
  }

  test("a stratum with no draws counts the midpoint 0.5 with infinite MoE") {
    // a budget-starved stratified TWCS allocation leaves a stratum undrawn
    val alone = Estimators.stratifiedDraws(Seq(40L -> Seq.empty), z95)
    assert(alone.value == 0.5 && alone.moe.isPosInfinity)
    val mixed = Estimators.stratifiedDraws(Seq(30L -> Seq(0.9, 0.7), 10L -> Seq.empty), z95)
    assert(math.abs(mixed.value - (0.75 * 0.8 + 0.25 * 0.5)) < 1e-12)
    assert(mixed.moe.isPosInfinity)
  }

  test("property: one stratum gives exactly meanOfDraws of the same values") {
    val gen = for {
      triples <- Gen.choose(1L, 100000L)
      values  <- Gen.nonEmptyListOf(Gen.choose(0.0, 1.0))
    } yield (triples, values)
    checkProp(Prop.forAll(gen) { case (triples, values) =>
      Estimators.stratifiedDraws(Seq(triples -> values), z95) == Estimators.meanOfDraws(values, z95)
    })
  }

  // ---- varOfMean ----

  test("varOfMean is s^2/n") {
    val vs = Seq(0.2, 0.4, 0.6, 0.8)
    assert(math.abs(Estimators.varOfMean(vs) - Stats.sampleVariance(vs) / 4) < 1e-15)
  }

  test("varOfMean of fewer than two draws is infinite") {
    assert(Estimators.varOfMean(Seq(0.5)).isPosInfinity)
  }
}
