package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Configuration of the iterative evaluation framework (Fig 2).
  *
  * @param eps             user-required margin of error (default 5%)
  * @param maxCostSeconds  annotation budget; exceeded => stop unconverged
  *                        (the paper caps RCS/WCS on MOVIE at 5 hours)
  */
final case class EvalConfig(eps: Double = 0.05,
                            maxCostSeconds: Double = Double.PositiveInfinity) {
  require(eps > 0 && eps < 1)
  /** 1 - confidence level: the paper's 95% CI. */
  val alpha: Double = 0.05
  def z: Double = Stats.zAlpha(alpha)
  /** Eq 4 with the paper's fitted constants. */
  val cost: CostModel.type = CostModel
  /** Triples per SRS iteration; also the CLT minimum n. */
  val srsBatch: Int = 30
  /** First-stage cluster draws per iteration. */
  val clusterBatch: Int = 5
  /** Minimum first-stage draws before the MoE stop rule. */
  val minClusterDraws: Int = 5
  /** Minimum annotated triples before the MoE stop rule for cluster designs
    * (the CLT n>30 rule of thumb — reproduces the paper's ~30-triple YAGO
    * samples and its ~24-draw TWCS(m=10) run on MOVIE).
    */
  val minTriples: Long = 30
}

/** Outcome of one evaluation run. Costs follow Eq (4) on distinct sets. */
final case class EvalResult(estimate: Double,
                            moe: Double,
                            clusterDraws: Int,
                            entities: Int,
                            triples: Long,
                            costSeconds: Double,
                            converged: Boolean) {
  def costHours: Double = costSeconds / 3600.0
}

/** Static Evaluation (§4): iteratively sample, annotate, estimate and stop as
  * soon as MoE <= eps — one method per sampling design of §5, all driven by
  * the one loop [[iterate]].
  */
object StaticEval {

  /** The iterative framework of Fig 2, shared by every design. Before each
    * batch it stops when the MoE meets ε once the sample floor (`minDraws`
    * draws, `minTriples` annotated triples) is met, when the annotation cost
    * reaches the budget, or when the KG drawn from, of `kgTriples` triples, is
    * exhausted: every triple is annotated, so later draws would cost nothing
    * and could not end a loop whose floors or ε it cannot meet. Otherwise it
    * makes up to `batch` single draws and re-estimates. `kgTriples` is read
    * only when neither the MoE rule nor the budget stops the loop, so a KG
    * built on demand is not built while the sample in hand meets ε.
    *
    * The rule is checked before drawing because stratified TWCS and the RS/SS
    * updates enter with draws already made; with no draw made (`drawn` = 0)
    * the MoE counts as infinite, so the loop draws first.
    */
  private[repro] def iterate(cfg: EvalConfig, tracker: CostTracker, batch: Int,
                             minDraws: Int, minTriples: Long,
                             drawn: => Int, kgTriples: => Long)
                            (draw: => Unit)(estimate: => Estimate): Estimate = {
    def exhausted: Boolean = tracker.triples >= kgTriples
    var est = if (drawn == 0) Estimate(0.0, Double.PositiveInfinity) else estimate
    def stop: Boolean =
      (drawn >= minDraws && tracker.triples >= minTriples && est.moe <= cfg.eps) ||
      tracker.seconds >= cfg.maxCostSeconds || exhausted
    while (!stop) {
      var i = 0
      while (i < batch && !exhausted) { draw; i += 1 }
      est = estimate
    }
    est
  }

  /** [[iterate]] for the mean-of-draws designs: each draw is charged to
    * `tracker` and its value appended to `values`, which may arrive seeded.
    */
  private[repro] def iterateDraws(cfg: EvalConfig, tracker: CostTracker,
                                 values: ArrayBuffer[Double], minDraws: Int, minTriples: Long,
                                 kgTriples: => Long)
                                (draw: => LocalSamplers.ClusterDraw)
                                (value: LocalSamplers.ClusterDraw => Double): Estimate =
    iterate(cfg, tracker, cfg.clusterBatch, minDraws, minTriples, values.size, kgTriples) {
      val d = draw
      tracker.record(d.cluster.id, d.cluster.size, d.annotated)
      values += value(d)
    }(Estimators.meanOfDraws(values.toSeq, cfg.z))

  private def result(est: Estimate, draws: Int, tracker: CostTracker, cfg: EvalConfig): EvalResult =
    EvalResult(est.value, est.moe, draws, tracker.entities, tracker.triples,
      tracker.seconds, est.moe <= cfg.eps)

  /** SRS: batches of `srsBatch` triples without replacement, Eq (5) estimator.
    * Each draw annotates one new triple (cluster ids are unique), so the
    * tracker's triple count is the sample size n.
    */
  def srs(kg: KGSummary, cfg: EvalConfig, rng: Random): EvalResult = {
    val stream  = new LocalSamplers.SrsStream(kg, rng)
    val tracker = new CostTracker()
    var correct = 0L
    val est = iterate(cfg, tracker, cfg.srsBatch, cfg.srsBatch, 0L,
                      tracker.triples.toInt, kg.numTriples) {
      val (idx, ok) = stream.next()
      val c = kg.clusters(idx)
      tracker.record(c.id, c.size, 1)
      if (ok) correct += 1
    }(Estimators.srs(correct, tracker.triples, cfg.z))
    result(est, 0, tracker, cfg)
  }

  private def clusterDesign(kg: KGSummary, cfg: EvalConfig)(draw: => LocalSamplers.ClusterDraw)
                           (value: LocalSamplers.ClusterDraw => Double): EvalResult = {
    val tracker = new CostTracker()
    val values  = ArrayBuffer.empty[Double]
    val est = iterateDraws(cfg, tracker, values, cfg.minClusterDraws, cfg.minTriples,
                           kg.numTriples)(draw)(value)
    result(est, values.size, tracker, cfg)
  }

  /** RCS (§5.2.1): uniform cluster draws, v_k = (N/M)·τ_{I_k}. */
  def rcs(kg: KGSummary, cfg: EvalConfig, rng: Random): EvalResult = {
    val scale = kg.numClusters.toDouble / kg.numTriples
    clusterDesign(kg, cfg)(LocalSamplers.rcsDraw(kg, rng))(scale * _.hits)
  }

  /** WCS (§5.2.2): size-weighted draws, v_k = μ_{I_k} (Hansen–Hurwitz). */
  def wcs(kg: KGSummary, cfg: EvalConfig, rng: Random): EvalResult =
    clusterDesign(kg, cfg)(LocalSamplers.wcsDraw(kg, rng))(_.cluster.accuracy)

  /** TWCS (§5.2.3): size-weighted draws + second-stage SRS of <= m triples. */
  def twcs(kg: KGSummary, m: Int, cfg: EvalConfig, rng: Random): EvalResult =
    clusterDesign(kg, cfg)(LocalSamplers.twcsDraw(kg, m, rng))(_.sampleMean)

  /** TWCS with stratification (§5.3): per-stratum TWCS estimators combined by
    * Eq (13); each iteration allocates `clusterBatch` draws greedily to the
    * stratum with the largest marginal variance reduction
    * W_h²·s_h²·(1/n_h - 1/(n_h+1)).
    */
  def twcsStratified(strata: Seq[KGSummary], m: Int,
                     cfg: EvalConfig, rng: Random): EvalResult = {
    require(strata.nonEmpty)
    val ws      = Stratification.weights(strata)
    val tracker = new CostTracker()
    val values  = strata.map(_ => ArrayBuffer.empty[Double])
    // variance floor keeps exploring strata whose few draws happened to agree
    val varFloor = 1e-4

    def drawIn(h: Int): Unit = {
      val d = LocalSamplers.twcsDraw(strata(h), m, rng)
      tracker.record(d.cluster.id, d.cluster.size, d.annotated)
      values(h) += d.sampleMean
    }

    // Initial allocation: enough draws per stratum for a usable variance
    // estimate — stopping off 2 agreeing draws would bias the estimator —
    // and a total triple floor (CLT) before the MoE rule may fire. The budget
    // is checked before each of these draws, as [[iterate]] checks it before
    // each batch.
    val minPerStratum = math.max(3, math.ceil(20.0 / strata.size).toInt)
    strata.indices.foreach { h =>
      (0 until minPerStratum).foreach(_ => if (tracker.seconds < cfg.maxCostSeconds) drawIn(h))
    }

    val kgTriples = strata.map(_.numTriples)
    val totalTriples = kgTriples.sum
    def totalDraws: Int = values.map(_.size).sum
    val est = iterate(cfg, tracker, cfg.clusterBatch, cfg.minClusterDraws, cfg.minTriples,
                      totalDraws, totalTriples) {
      drawIn(strata.indices.maxBy { h =>
        val nH = values(h).size.toDouble
        val s2 = math.max(Stats.sampleVariance(values(h).toSeq), varFloor)
        ws(h) * ws(h) * s2 * (1.0 / nH - 1.0 / (nH + 1.0))
      })
    }(Estimators.stratifiedDraws(kgTriples.zip(values.map(_.toSeq)), cfg.z))
    result(est, totalDraws, tracker, cfg)
  }

  // ------------------------------------------------------------------
  // Monte-Carlo replication (the paper averages 1000 random runs)
  // ------------------------------------------------------------------

  /** Aggregate statistics over repeated evaluation runs. */
  final case class McStats(trials: Int,
                           meanEstimate: Double, sdEstimate: Double,
                           estP2p5: Double, estP97p5: Double,
                           meanCostHours: Double, sdCostHours: Double,
                           meanTriples: Double, meanEntities: Double,
                           convergedFrac: Double)

  /** Run `trials` independent evaluations. Per-trial seeds come from a master
    * RNG — sequential raw seeds (seed+t) correlate java.util.Random's first
    * outputs enough to visibly bias Monte-Carlo means.
    */
  def monteCarlo(trials: Int, seed: Long)(run: Random => EvalResult): McStats = {
    require(trials >= 1)
    val master  = new Random(seed)
    val results = (0 until trials).map(_ => run(new Random(master.nextLong())))
    val ests  = results.map(_.estimate)
    val costs = results.map(_.costHours)
    val sortedEst = ests.sorted
    def pct(p: Double): Double = sortedEst(math.min(ests.size - 1, (p * ests.size).toInt))
    McStats(
      trials,
      Stats.mean(ests), math.sqrt(Stats.sampleVariance(ests)),
      pct(0.025), pct(0.975),
      Stats.mean(costs), math.sqrt(Stats.sampleVariance(costs)),
      Stats.mean(results.map(_.triples.toDouble)),
      Stats.mean(results.map(_.entities.toDouble)),
      results.count(_.converged).toDouble / trials)
  }
}
