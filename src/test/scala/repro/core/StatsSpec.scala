package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelper

import scala.util.Random

class StatsSpec extends AnyFunSuite with PropHelper {

  // ---- mean / variance ----

  test("mean of known values") {
    assert(Stats.mean(Seq(1.0, 2.0, 3.0, 4.0)) == 2.5)
  }

  test("mean of empty sequence rejects") {
    intercept[IllegalArgumentException](Stats.mean(Seq.empty))
  }

  test("sampleVariance of known values") {
    // var of {2,4,4,4,5,5,7,9} with n-1 denominator = 32/7
    assert(math.abs(Stats.sampleVariance(Seq(2, 4, 4, 4, 5, 5, 7, 9).map(_.toDouble)) - 32.0 / 7) < 1e-12)
  }

  test("sampleVariance of a constant sequence is 0") {
    assert(Stats.sampleVariance(Seq.fill(10)(3.14)) == 0.0)
  }

  test("sampleVariance of a single value is 0") {
    assert(Stats.sampleVariance(Seq(1.0)) == 0.0)
  }

  // ---- hypergeometric ----

  test("hypergeometric drawing everything returns all the good items") {
    val rng = new Random(1)
    (1 to 20).foreach { _ =>
      assert(Stats.hypergeometric(rng, total = 10, good = 4, draws = 10) == 4)
    }
  }

  test("hypergeometric with zero draws returns 0") {
    assert(Stats.hypergeometric(new Random(1), 10, 4, 0) == 0)
  }

  test("hypergeometric with all-good population returns draws") {
    val rng = new Random(2)
    assert(Stats.hypergeometric(rng, 8, 8, 5) == 5)
  }

  test("property: hypergeometric respects support bounds") {
    val gen = for {
      total <- Gen.choose(1, 50)
      good  <- Gen.choose(0, total)
      draws <- Gen.choose(0, total)
      seed  <- Gen.choose(0L, 10000L)
    } yield (total, good, draws, seed)
    checkProp(Prop.forAll(gen) { case (total, good, draws, seed) =>
      val x = Stats.hypergeometric(new Random(seed), total, good, draws)
      x >= math.max(0, draws - (total - good)) && x <= math.min(draws, good)
    })
  }

  test("hypergeometric mean matches draws*good/total") {
    val rng = new Random(3)
    val n = 20000
    val mean = (1 to n).map(_ => Stats.hypergeometric(rng, 20, 8, 5)).sum.toDouble / n
    assert(math.abs(mean - 5.0 * 8 / 20) < 0.05)
  }

  test("hypergeometric rejects inconsistent parameters") {
    intercept[IllegalArgumentException](Stats.hypergeometric(new Random(1), 5, 6, 1))
    intercept[IllegalArgumentException](Stats.hypergeometric(new Random(1), 5, 1, 6))
  }
}
