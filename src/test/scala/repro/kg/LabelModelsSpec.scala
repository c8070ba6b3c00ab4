package repro.kg

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class LabelModelsSpec extends AnyFunSuite {
  import LabelModels._

  test("REM probability is constant and size-independent") {
    val m = REM(0.1)
    val rng = new Random(1)
    assert(m.p(1, rng) == 0.9 && m.p(1000, rng) == 0.9)
  }

  test("REM rejects rates outside [0,1]") {
    intercept[IllegalArgumentException](REM(1.5))
  }

  test("BMM below the knee is 0.5 plus noise") {
    val m = BMM(c = 0.01, sigma = 0.0, k = 3)
    assert(m.p(1, new Random(1)) == 0.5)
    assert(m.p(2, new Random(1)) == 0.5)
  }

  test("BMM sigmoid rises with cluster size") {
    val m = BMM(c = 0.1, sigma = 0.0, k = 3)
    val rng = new Random(2)
    val p10  = m.p(10, rng)
    val p100 = m.p(100, rng)
    assert(p10 > 0.5 && p100 > p10)
    assert(p100 > 0.99)
  }

  test("BMM at the knee is exactly the sigmoid midpoint") {
    val m = BMM(c = 0.5, sigma = 0.0, k = 5)
    assert(math.abs(m.p(5, new Random(3)) - 0.5) < 1e-12)
  }

  test("BMM with c=0 keeps every cluster at 0.5 regardless of size") {
    val m = BMM(c = 0.0, sigma = 0.0, k = 3)
    assert(m.p(1000, new Random(4)) == 0.5)
  }

  test("noise never pushes probabilities outside [0,1]") {
    val m = NoisyCluster(0.95, 0.5)
    val rng = new Random(5)
    (1 to 500).foreach { _ =>
      val p = m.p(3, rng)
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("NoisyCluster mean is pulled below its base by the upper clamp") {
    val m = NoisyCluster(0.95, 0.17)
    val rng = new Random(6)
    val mean = (1 to 20000).map(_ => m.p(2, rng)).sum / 20000
    assert(mean < 0.95 && mean > 0.85, s"got $mean")
  }
}
