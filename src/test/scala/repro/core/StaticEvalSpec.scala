package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class StaticEvalSpec extends AnyFunSuite {

  /** Synthetic population: 600 clusters, sizes 1..20, ~85% accurate with
    * per-cluster heterogeneity — heavy enough that converging at 5% MoE takes
    * a non-trivial sample.
    */
  private val kg: KGSummary = {
    val rng = new Random(123)
    KGSummary(Array.tabulate(600) { i =>
      val size = 1 + rng.nextInt(20)
      val p = math.max(0.0, math.min(1.0, 0.85 + rng.nextGaussian() * 0.15))
      val tau = (0 until size).count(_ => rng.nextDouble() < p)
      Cluster(i.toLong, size, tau)
    })
  }

  private val cfg = EvalConfig()

  test("EvalConfig's z is the classic 1.96") {
    // the exact 0.975 Normal quantile; z is Acklam's approximation of it
    assert(math.abs(cfg.z - 1.959963984540054) < 2e-9)
  }

  test("srs run satisfies the MoE stop rule") {
    val r = StaticEval.srs(kg, cfg, new Random(1))
    assert(r.converged && r.moe <= cfg.eps)
    assert(r.triples >= cfg.srsBatch)
  }

  test("srs cost equals Eq 4 on its sample counts") {
    val r = StaticEval.srs(kg, cfg, new Random(2))
    assert(math.abs(r.costSeconds - (r.entities * 45.0 + r.triples * 25.0)) < 1e-9)
  }

  test("srs on a tiny KG stops after exhausting it with the exact accuracy") {
    val tiny = KGSummary(Array(Cluster(1, 3, 2), Cluster(2, 2, 2)))
    val r = StaticEval.srs(tiny, cfg, new Random(3))
    assert(r.triples == tiny.numTriples)
    assert(math.abs(r.estimate - tiny.accuracy) < 1e-12)
  }

  test("srs is unbiased over repeated trials") {
    val mc = StaticEval.monteCarlo(150, 40)(StaticEval.srs(kg, cfg, _))
    assert(math.abs(mc.meanEstimate - kg.accuracy) < 0.015)
  }

  test("twcs run converges with at least minClusterDraws draws") {
    val r = StaticEval.twcs(kg, 5, cfg, new Random(4))
    assert(r.converged && r.clusterDraws >= cfg.minClusterDraws)
  }

  test("twcs is unbiased over repeated trials (Proposition 1)") {
    val mc = StaticEval.monteCarlo(150, 50)(StaticEval.twcs(kg, 5, cfg, _))
    assert(math.abs(mc.meanEstimate - kg.accuracy) < 0.015)
  }

  test("wcs is unbiased over repeated trials") {
    val mc = StaticEval.monteCarlo(150, 60)(StaticEval.wcs(kg, cfg, _))
    assert(math.abs(mc.meanEstimate - kg.accuracy) < 0.015)
  }

  test("rcs is unbiased over repeated trials") {
    val mc = StaticEval.monteCarlo(150, 70)(StaticEval.rcs(kg, cfg, _))
    assert(math.abs(mc.meanEstimate - kg.accuracy) < 0.02)
  }

  test("twcs annotates at most m triples per draw") {
    val r = StaticEval.twcs(kg, 3, cfg, new Random(5))
    assert(r.triples <= r.clusterDraws.toLong * 3)
  }

  test("rcs needs more annotation effort than twcs on a size-spread KG") {
    val rcs  = StaticEval.monteCarlo(40, 80)(StaticEval.rcs(kg, cfg, _))
    val twcs = StaticEval.monteCarlo(40, 90)(StaticEval.twcs(kg, 5, cfg, _))
    assert(rcs.meanCostHours > twcs.meanCostHours)
  }

  test("a cost cap stops the run unconverged") {
    val capped = cfg.copy(maxCostSeconds = 400.0)
    val r = StaticEval.rcs(kg, capped, new Random(6))
    assert(!r.converged)
    assert(r.costSeconds >= 400.0) // stops at the first check past the cap
  }

  test("nominal 95% CI covers the truth in most trials") {
    val results = (0 until 150).map(t => StaticEval.twcs(kg, 5, cfg, new Random(500 + t)))
    val covered = results.count(r => math.abs(r.estimate - kg.accuracy) <= r.moe)
    assert(covered >= (0.80 * results.size).toInt, s"covered $covered/150")
  }

  test("monteCarlo is deterministic in its seed") {
    val a = StaticEval.monteCarlo(20, 7)(StaticEval.twcs(kg, 5, cfg, _))
    val b = StaticEval.monteCarlo(20, 7)(StaticEval.twcs(kg, 5, cfg, _))
    assert(a == b)
  }

  test("monteCarlo percentiles bracket the mean") {
    val mc = StaticEval.monteCarlo(100, 8)(StaticEval.twcs(kg, 5, cfg, _))
    assert(mc.estP2p5 <= mc.meanEstimate && mc.meanEstimate <= mc.estP97p5)
  }

  test("EvalResult converts cost to hours") {
    val r = EvalResult(0.9, 0.02, 5, 5, 20, 7200.0, converged = true)
    assert(r.costHours == 2.0)
  }

  // ---- stratified TWCS ----

  /** A KG whose accuracy is strongly size-correlated — small clusters ~40%
    * accurate, large ones ~95%, each side carrying comparable triple weight —
    * the regime where stratification shines (Table 7, MOVIE-SYN column).
    */
  private val correlated: KGSummary = {
    val rng = new Random(321)
    KGSummary(Array.tabulate(800) { i =>
      val size = if (i % 8 < 7) 1 + rng.nextInt(5) else 20 + rng.nextInt(20)
      val p = if (size < 10) 0.4 else 0.95
      val tau = (0 until size).count(_ => rng.nextDouble() < p)
      Cluster(i.toLong, size, tau)
    })
  }

  test("stratified twcs converges and is unbiased") {
    val strata = Stratification.sizeStrata(correlated, 2)
    val mc = StaticEval.monteCarlo(100, 9)(StaticEval.twcsStratified(strata, 5, cfg, _))
    // a ~2% early-stopping artifact is expected of any adaptive MoE stop rule
    assert(math.abs(mc.meanEstimate - correlated.accuracy) < 0.03)
    assert(mc.convergedFrac == 1.0)
  }

  test("size stratification cuts cost on a size-correlated KG") {
    val strata = Stratification.sizeStrata(correlated, 2)
    val plain = StaticEval.monteCarlo(80, 10)(StaticEval.twcs(correlated, 5, cfg, _))
    val strat = StaticEval.monteCarlo(80, 11)(StaticEval.twcsStratified(strata, 5, cfg, _))
    assert(strat.meanCostHours < plain.meanCostHours)
  }

  test("oracle stratification is at least as cheap as size stratification here") {
    val size   = Stratification.sizeStrata(correlated, 2)
    val oracle = Stratification.oracleStrata(correlated, 2)
    val s = StaticEval.monteCarlo(80, 12)(StaticEval.twcsStratified(size, 5, cfg, _))
    val o = StaticEval.monteCarlo(80, 13)(StaticEval.twcsStratified(oracle, 5, cfg, _))
    assert(o.meanCostHours <= s.meanCostHours * 1.1)
  }

  test("stratified twcs tracks draws across all strata") {
    val strata = Stratification.sizeStrata(correlated, 2)
    val r = StaticEval.twcsStratified(strata, 5, cfg, new Random(14))
    assert(r.clusterDraws >= 2 * strata.size)
  }
}
