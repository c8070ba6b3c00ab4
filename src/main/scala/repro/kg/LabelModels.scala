package repro.kg

import scala.util.Random

/** Synthetic triple-correctness label models (§7.1.2).
  *
  * Each model yields a per-cluster probability p_i that a triple of cluster i
  * is correct; τ_i | p_i is then Binomial(M_i, p_i), matching the paper's
  * Binomial Mixture construction.
  */
sealed trait LabelModel {
  /** Per-cluster accuracy probability. */
  def p(size: Int, rng: Random): Double
}

object LabelModels {
  private def clamp(x: Double): Double = math.max(0.0, math.min(1.0, x))

  /** Random Error Model: every triple correct with fixed probability 1 - errorRate. */
  final case class REM(errorRate: Double) extends LabelModel {
    require(errorRate >= 0 && errorRate <= 1)
    def p(size: Int, rng: Random): Double = 1.0 - errorRate
  }

  /** Binomial Mixture Model (Eq 15): sigmoid-in-size accuracy plus Normal noise.
    *
    * p_i = 0.5 + ε                      if M_i < k
    *     = 1/(1+exp(-c(M_i-k))) + ε     if M_i >= k,    ε ~ N(0, σ²)
    */
  final case class BMM(c: Double, sigma: Double, k: Int = 3) extends LabelModel {
    require(c >= 0 && sigma >= 0)
    def p(size: Int, rng: Random): Double = {
      val base = if (size < k) 0.5 else 1.0 / (1.0 + math.exp(-c * (size - k)))
      clamp(base + rng.nextGaussian() * sigma)
    }
  }

  /** Per-cluster accuracy p_i = clamp(base + N(0, σ²)) — heterogeneous entity
    * accuracies *uncorrelated with size*. Used for the NELL-like KG, whose
    * real labels show entity-accuracy spread that size does not predict well
    * (the paper's §7.2.3 observation that size stratification does not help).
    */
  final case class NoisyCluster(base: Double, sigma: Double) extends LabelModel {
    require(base >= 0 && base <= 1 && sigma >= 0)
    def p(size: Int, rng: Random): Double = clamp(base + rng.nextGaussian() * sigma)
  }
}
