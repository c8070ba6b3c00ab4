package repro.evolve

import repro.core._

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Result of evaluating one evolving-KG snapshot. Cost covers only the *new*
  * annotations this round (previously annotated samples are free to reuse).
  */
final case class SnapshotResult(estimate: Double,
                                moe: Double,
                                newEntities: Int,
                                newTriples: Long,
                                costSeconds: Double,
                                converged: Boolean) {
  def costHours: Double = costSeconds / 3600.0
}

/** Incremental evaluation on evolving KGs (§6): RS (reservoir, Algorithm 1),
  * SS (stratified, Algorithm 2) and the fresh-TWCS Baseline.
  *
  * All three evaluators consume update batches as arrays of [[Cluster]]s
  * (each Δ_e is treated as a new, independent cluster — §6.1) and share the
  * second-stage size m and the framework config.
  */
object IncrementalEval {

  private def snapshot(est: Estimate, tracker: CostTracker, cfg: EvalConfig): SnapshotResult =
    SnapshotResult(est.value, est.moe, tracker.entities, tracker.triples, tracker.seconds,
      est.moe <= cfg.eps)

  private def clamp01(x: Double): Double = math.max(0.0, math.min(1.0, x))

  // ==================================================================
  // Baseline: independent static TWCS on every snapshot
  // ==================================================================

  /** Re-evaluates each snapshot from scratch; pays full cost every time. */
  final class BaselineEvaluator(m: Int, cfg: EvalConfig, rng: Random) {
    private val all = ArrayBuffer.empty[Cluster]

    def initialize(base: KGSummary): Unit = { all ++= base.clusters }

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      all ++= batch
      val r = StaticEval.twcs(KGSummary(all.toArray), m, cfg, rng)
      SnapshotResult(r.estimate, r.moe, r.entities, r.triples, r.costSeconds, r.converged)
    }
  }

  // ==================================================================
  // RS: Reservoir Incremental Evaluation (§6.1, Algorithm 1)
  // ==================================================================

  /** Maintains a weighted reservoir of annotated cluster draws. Per update
    * batch: offer every new cluster (annotating those that enter), then — if
    * the MoE over the reservoir exceeds ε — top up with fresh TWCS draws from
    * the current KG (the paper's "run Static Evaluation on G+Δ" step), within
    * the cost budget.
    *
    * @param capacity reservoir size |R| (first-stage sample size from the
    *                 initial static evaluation)
    * @param initBias added to the recorded sample means of the initial
    *                 reservoir entries (clamped to [0,1]) — fault-injection
    *                 for the Fig 9 over-/under-estimation experiment; decays
    *                 as reservoir turnover replaces the biased entries
    */
  final class ReservoirEvaluator(capacity: Int, m: Int, cfg: EvalConfig, rng: Random,
                                 initBias: Double = 0.0) {
    /** Payload per reservoir entry: the recorded within-cluster sample mean. */
    private val reservoir = new WeightedReservoir[Double](capacity)
    private val all = ArrayBuffer.empty[Cluster]

    /** Build the initial reservoir over the base KG (annotations charged to
      * the static evaluation that precedes the evolving phase, not to any
      * update round).
      */
    def initialize(base: KGSummary): Unit = {
      all ++= base.clusters
      base.clusters.foreach { c =>
        reservoir.offer(c, rng)(clamp01(LocalSamplers.secondStage(c, m, rng).sampleMean + initBias))
      }
    }

    def totalInsertions: Long = reservoir.totalInsertions

    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      all ++= batch
      val tracker = new CostTracker()
      batch.foreach { c =>
        reservoir.offer(c, rng) {
          val d = LocalSamplers.secondStage(c, m, rng)
          tracker.record(c.id, c.size, d.annotated)
          d.sampleMean
        }
      }
      // Top-up draws come from the current KG; its size index is built only
      // if the reservoir alone misses the MoE bar.
      lazy val current = KGSummary(all.toArray)
      val values = reservoir.entries.map(_.payload).to(ArrayBuffer)
      val est = StaticEval.iterateDraws(cfg, tracker, values, 0, 0L, current.numTriples)(
        LocalSamplers.twcsDraw(current, m, rng))(_.sampleMean)
      snapshot(est, tracker, cfg)
    }
  }

  // ==================================================================
  // SS: Stratified Incremental Evaluation (§6.2, Algorithm 2)
  // ==================================================================

  /** Each update batch Δ^i becomes a new stratum; earlier strata estimates
    * (G, Δ^1, …, Δ^{i-1}) are reused verbatim and only the newest stratum is
    * sampled until the combined MoE meets ε.
    *
    * @param initBias added to the base-stratum draw values after the initial
    *                 static evaluation — fault-injection for Fig 9
    */
  final class StratifiedEvaluator(m: Int, cfg: EvalConfig, rng: Random,
                                  initBias: Double = 0.0) {
    /** Per stratum: its triple count and its draw values. */
    private val strata = ArrayBuffer.empty[(Long, ArrayBuffer[Double])]

    /** Run the initial static TWCS evaluation on the base KG, keeping its draws. */
    def initialize(base: KGSummary): Unit = {
      val values = ArrayBuffer.empty[Double]
      StaticEval.iterateDraws(cfg, new CostTracker(), values, cfg.minClusterDraws,
        cfg.minTriples, base.numTriples)(LocalSamplers.twcsDraw(base, m, rng))(_.sampleMean)
      strata += base.numTriples -> values.map(v => clamp01(v + initBias))
    }

    /** A handful of draws so the new stratum has a usable sample variance (2
      * agreeing draws would stop on a spurious zero), then batches until the
      * *combined* MoE satisfies ε. No triple floor: Algorithm 2's stop rule is
      * on the combined MoE, and the base stratum already carries a CLT-sized
      * sample.
      */
    def applyUpdate(batch: Array[Cluster]): SnapshotResult = {
      val delta   = KGSummary(batch)
      val values  = ArrayBuffer.empty[Double]
      val tracker = new CostTracker()
      strata += delta.numTriples -> values
      val est = StaticEval.iterate(cfg, tracker, cfg.clusterBatch, cfg.minClusterDraws, 0L,
                                   values.size, delta.numTriples) {
        val d = LocalSamplers.twcsDraw(delta, m, rng)
        tracker.record(d.cluster.id, d.cluster.size, d.annotated)
        values += d.sampleMean
      }(Estimators.stratifiedDraws(strata.map { case (n, vs) => n -> vs.toSeq }.toSeq, cfg.z))
      snapshot(est, tracker, cfg)
    }
  }
}
