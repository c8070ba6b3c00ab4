package repro.core

/** Point estimate with its margin of error at the chosen confidence level. */
final case class Estimate(value: Double, moe: Double)

/** Pure estimator math for all sampling designs (Eqs 5, 7, 8, 9, 13).
  *
  * Each estimator consumes the per-draw statistics produced by a sampler and
  * returns an unbiased point estimate of μ(G) plus the Normal-approximation
  * margin of error z_{α/2}·sqrt(Var̂).
  */
object Estimators {

  /** SRS (Eq 5): mean of n annotated triples, k of which are correct.
    * MoE uses the Bernoulli plug-in variance μ̂(1-μ̂)/n.
    */
  def srs(correct: Long, n: Long, z: Double): Estimate = {
    require(n > 0, "empty SRS sample")
    val mu = correct.toDouble / n
    Estimate(mu, z * math.sqrt(mu * (1 - mu) / n))
  }

  /** Mean-of-draws estimator with CI from the sample variance of per-draw
    * values — the common form of the RCS/WCS/TWCS CIs:
    * μ̂ ± z·sqrt( Σ(v_k-μ̂)² / (n(n-1)) ).
    *
    * For RCS pass v_k = (N/M)·τ_{I_k}; for WCS pass v_k = μ_{I_k};
    * for TWCS pass v_k = μ̂_{I_k} (the within-cluster sample mean).
    */
  def meanOfDraws(values: Seq[Double], z: Double): Estimate = {
    require(values.nonEmpty, "no draws")
    Estimate(Stats.mean(values), z * math.sqrt(varOfMean(values)))
  }

  /** One stratum's contribution: weight W_h, estimate μ̂_h and Var̂(μ̂_h). */
  final case class Stratum(weight: Double, estimate: Double, varOfEstimate: Double)

  /** Stratified combination (Eq 13): μ̂_ss = Σ W_h μ̂_h,
    * MoE = z·sqrt(Σ W_h² Var̂(μ̂_h)).
    */
  def stratified(strata: Seq[Stratum], z: Double): Estimate = {
    require(strata.nonEmpty, "no strata")
    val wSum = strata.map(_.weight).sum
    require(math.abs(wSum - 1.0) < 1e-9, s"stratum weights sum to $wSum, expected 1")
    val mu  = strata.map(s => s.weight * s.estimate).sum
    val v   = strata.map(s => s.weight * s.weight * s.varOfEstimate).sum
    Estimate(mu, z * math.sqrt(v))
  }

  /** Eq 13 over per-stratum mean-of-draws estimators, given each stratum's
    * triple count |G_h| and draw values: W_h = |G_h| / Σ|G_h|, μ̂_h the mean of
    * the draws and Var̂(μ̂_h) their [[varOfMean]]. A stratum with no draws yet
    * counts the midpoint of its [0, 1] range with infinite variance.
    */
  def stratifiedDraws(strata: Seq[(Long, Seq[Double])], z: Double): Estimate = {
    val total = strata.map(_._1).sum.toDouble
    stratified(strata.map { case (triples, values) =>
      if (values.isEmpty) Stratum(triples / total, 0.5, Double.PositiveInfinity)
      else Stratum(triples / total, Stats.mean(values), varOfMean(values))
    }, z)
  }

  /** Var̂ of a mean-of-draws estimator, for feeding [[stratified]]. */
  def varOfMean(values: Seq[Double]): Double = {
    val n = values.size
    if (n < 2) Double.PositiveInfinity else Stats.sampleVariance(values) / n
  }
}
