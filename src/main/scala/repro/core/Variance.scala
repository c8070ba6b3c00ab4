package repro.core

/** Theoretical variance and cost formulas used to size samples (§5.1–5.2.3).
  *
  * These take the *true* cluster accuracies, so they are only computable with
  * ground-truth labels — the paper uses them the same way, to validate the
  * simulated optima (Fig 6) and to pick the optimal second-stage size m.
  */
object Variance {

  /** The paper's fitted Eq 4 constants, which every cost formula here uses. */
  private val cost = CostModel.default

  /** V(m) from Eq (10)/(12): Var(μ̂_{w,m}) = V(m)/n.
    *
    * V(m) = (1/M)·[ Σ_i M_i(μ_i-μ)² + (1/m)·Σ_{i:M_i>m} ((M_i-m)/(M_i-1))·M_i·μ_i(1-μ_i) ]
    */
  def vOfM(kg: KGSummary, m: Int): Double = {
    require(m >= 1, s"m must be >= 1, got $m")
    val mu = kg.accuracy
    var between = 0.0
    var within  = 0.0
    var i = 0
    while (i < kg.clusters.length) {
      val c  = kg.clusters(i)
      val mi = c.size.toDouble
      val ai = c.accuracy
      between += mi * (ai - mu) * (ai - mu)
      if (c.size > m) {
        within += ((mi - m) / (mi - 1.0)) * mi * ai * (1 - ai)
      }
      i += 1
    }
    (between + within / m) / kg.numTriples
  }

  /** Theoretical Var(μ̂_{w,m}) for n first-stage draws (Eq 10). */
  def twcsVariance(kg: KGSummary, n: Int, m: Int): Double = vOfM(kg, m) / n

  /** First-stage draws needed so that MoE(μ̂_{w,m}) <= eps: n = V(m)·z²/ε². */
  def twcsRequiredN(kg: KGSummary, m: Int, eps: Double, z: Double): Int =
    math.max(1, math.ceil(vOfM(kg, m) * z * z / (eps * eps)).toInt)

  /** Upper-bound TWCS cost in seconds (Eq 11/12): n·c1 + n·m·c2 with n = V(m)z²/ε².
    * "Upper bound" = assumes every sampled cluster has at least m triples.
    */
  def twcsCostUpperBound(kg: KGSummary, m: Int, eps: Double, z: Double): Double = {
    val n = vOfM(kg, m) * z * z / (eps * eps)
    n * (cost.c1 + m * cost.c2)
  }

  /** Optimal second-stage size m* minimizing the Eq (12) cost bound, found by
    * linear search over the (small, discrete) candidates 1..20.
    */
  def optimalM(kg: KGSummary, eps: Double, z: Double): Int =
    (1 to 20).minBy(m => twcsCostUpperBound(kg, m, eps, z))

  /** SRS sample size for MoE <= eps given accuracy mu: n_s = μ(1-μ)z²/ε². */
  def srsRequiredN(mu: Double, eps: Double, z: Double): Int =
    math.max(1, math.ceil(mu * (1 - mu) * z * z / (eps * eps)).toInt)

  /** Expected number of distinct entities touched by an SRS of n_s triples (Eq 6):
    * E[n_c] = Σ_i (1 - (1 - M_i/M)^{n_s}).
    */
  def srsExpectedEntities(kg: KGSummary, ns: Int): Double = {
    val mTot = kg.numTriples.toDouble
    kg.clusters.iterator.map(c => 1.0 - math.pow(1.0 - c.size / mTot, ns.toDouble)).sum
  }

  /** Expected SRS cost in seconds for n_s triples (objective in Eq 6). */
  def srsExpectedCost(kg: KGSummary, ns: Int): Double =
    srsExpectedEntities(kg, ns) * cost.c1 + ns * cost.c2
}
