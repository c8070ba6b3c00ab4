package repro.core

import scala.util.Random

/** Driver-side exact samplers over a [[KGSummary]].
  *
  * Used by the Monte-Carlo harness (the paper repeats every design 1000×; a
  * Spark job per trial would be pure overhead). Statistically identical to the
  * DataFrame samplers in `repro.spark`, whose WCS/RCS first stage is this
  * code: a design only interacts with the KG through cluster sizes and draw
  * outcomes, and drawing j triples without replacement from a cluster with τ
  * correct among M is exactly a Hypergeometric(M, τ, j) draw.
  */
object LocalSamplers {

  /** Outcome of one first-stage cluster draw.
    *
    * @param cluster    the drawn cluster
    * @param annotated  number of triples annotated in this draw
    * @param hits       number of those that were correct
    */
  final case class ClusterDraw(cluster: Cluster, annotated: Int, hits: Int) {
    /** Within-draw sample mean μ̂_{I_k}. */
    def sampleMean: Double = hits.toDouble / annotated
  }

  /** Sequential SRS of triples without replacement across the whole KG.
    *
    * Keeps per-cluster (drawn, drawnCorrect) counts; each call draws one more
    * uniform remaining triple via rejection on fully/partially drawn clusters
    * and a hypergeometric-style conditional correctness probability.
    */
  final class SrsStream(kg: KGSummary, rng: Random) {
    private val drawn        = new Array[Int](kg.numClusters)
    private val drawnCorrect = new Array[Int](kg.numClusters)
    private var total        = 0L

    /** Draw one triple; returns (clusterIndex, correct). */
    def next(): (Int, Boolean) = {
      require(total < kg.numTriples, "SRS exhausted the KG")
      var idx = -1
      var ok  = false
      while (!ok) {
        idx = kg.sizeWeights.draw(rng)
        val rem = kg.clusters(idx).size - drawn(idx)
        // accept ∝ remaining fraction => uniform over remaining triples
        ok = rem > 0 && rng.nextDouble() * kg.clusters(idx).size < rem
      }
      val c         = kg.clusters(idx)
      val remaining = c.size - drawn(idx)
      val remGood   = c.tau - drawnCorrect(idx)
      val correct   = rng.nextDouble() * remaining < remGood
      drawn(idx) += 1
      if (correct) drawnCorrect(idx) += 1
      total += 1
      (idx, correct)
    }
  }

  /** One RCS draw: uniform cluster (with replacement), fully annotated. */
  def rcsDraw(kg: KGSummary, rng: Random): ClusterDraw = {
    val c = kg.clusters(rng.nextInt(kg.numClusters))
    ClusterDraw(c, c.size, c.tau)
  }

  /** One WCS draw: cluster ∝ size (with replacement), fully annotated. */
  def wcsDraw(kg: KGSummary, rng: Random): ClusterDraw = {
    val c = kg.clusters(kg.sizeWeights.draw(rng))
    ClusterDraw(c, c.size, c.tau)
  }

  /** One TWCS draw: cluster ∝ size, then SRS of min(M_i, m) triples within.
    * The within-cluster hit count is an exact Hypergeometric(M_i, τ_i, s) draw.
    */
  def twcsDraw(kg: KGSummary, m: Int, rng: Random): ClusterDraw = {
    require(m >= 1)
    val c = kg.clusters(kg.sizeWeights.draw(rng))
    secondStage(c, m, rng)
  }

  /** Second-stage SRS of min(M_i, m) triples within a given cluster. */
  def secondStage(c: Cluster, m: Int, rng: Random): ClusterDraw = {
    val s = math.min(c.size, m)
    ClusterDraw(c, s, Stats.hypergeometric(rng, c.size, c.tau, s))
  }
}
