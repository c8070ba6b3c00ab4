package repro.core

import scala.util.Random

/** Small statistics toolbox shared by all sampling designs.
  *
  * Everything here is deterministic given an explicit [[scala.util.Random]],
  * so Monte-Carlo experiments are reproducible from a seed.
  */
object Stats {

  /** Sample mean. */
  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of empty sequence")
    xs.sum / xs.size
  }

  /** Unbiased sample variance (n-1 denominator); 0 for n < 2. */
  def sampleVariance(xs: Seq[Double]): Double = {
    val n = xs.size
    if (n < 2) 0.0
    else {
      val m = mean(xs)
      xs.map(x => (x - m) * (x - m)).sum / (n - 1)
    }
  }

  /** Draw from Hypergeometric(total, good, draws): number of "good" items in
    * `draws` taken without replacement from a population of `total` items of
    * which `good` are good. Sequential exact simulation; draws is small (<= m).
    */
  def hypergeometric(rng: Random, total: Int, good: Int, draws: Int): Int = {
    require(draws <= total && good <= total && draws >= 0 && good >= 0,
      s"bad hypergeometric params total=$total good=$good draws=$draws")
    var remTotal = total
    var remGood  = good
    var hits     = 0
    var i        = 0
    while (i < draws) {
      if (rng.nextDouble() * remTotal < remGood) { hits += 1; remGood -= 1 }
      remTotal -= 1
      i += 1
    }
    hits
  }
}

/** O(log N) weighted index: draws an index with probability weight(i)/sum(weights).
  * Used for with-replacement cluster draws proportional to cluster size.
  */
final class CumulativeWeights(weights: Array[Long]) {
  require(weights.nonEmpty, "no weights")
  private val cum: Array[Long] = {
    val out = new Array[Long](weights.length)
    var acc = 0L
    var i = 0
    while (i < weights.length) {
      require(weights(i) > 0, s"non-positive weight at $i")
      acc += weights(i); out(i) = acc; i += 1
    }
    out
  }

  /** Total weight. */
  val total: Long = cum.last

  /** Index i with P(i) = weights(i)/total. */
  def draw(rng: Random): Int = {
    val dart = (rng.nextDouble() * total).toLong
    // first index whose cumulative weight exceeds the dart
    var lo = 0
    var hi = cum.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) <= dart) lo = mid + 1 else hi = mid
    }
    lo
  }
}
