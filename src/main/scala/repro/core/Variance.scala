package repro.core

/** TWCS's variance V(m) (Eq 10) and the Eq 12 search for the second-stage
  * size m* that minimizes its cost bound (§5.2.3).
  *
  * These take the *true* cluster accuracies, so they are only computable with
  * ground-truth labels — the paper uses them the same way, to pick the optimal
  * second-stage size m.
  */
object Variance {

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

  /** Upper-bound TWCS cost in seconds (Eq 11/12): n·c1 + n·m·c2 with n = V(m)z²/ε².
    * "Upper bound" = assumes every sampled cluster has at least m triples.
    */
  def twcsCostUpperBound(kg: KGSummary, m: Int, eps: Double, z: Double): Double = {
    val n = vOfM(kg, m) * z * z / (eps * eps)
    n * (CostModel.c1 + m * CostModel.c2)
  }

  /** Optimal second-stage size m* minimizing the Eq (12) cost bound, found by
    * linear search over the (small, discrete) candidates 1..20.
    */
  def optimalM(kg: KGSummary, eps: Double, z: Double): Int =
    (1 to 20).minBy(m => twcsCostUpperBound(kg, m, eps, z))
}
