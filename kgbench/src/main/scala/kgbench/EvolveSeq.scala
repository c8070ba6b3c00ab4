package kgbench

import java.lang.reflect.Field

import repro.core._
import repro.evolve.{SnapshotResult, WeightedReservoir}
import repro.evolve.IncrementalEval.{BaselineEvaluator, ReservoirEvaluator, StratifiedEvaluator}
import repro.exp.Experiments
import repro.jobs.JobSession
import repro.kg.{LabelModels, LocalKGGen}

import scala.collection.mutable.ArrayBuffer

/** Writes beside reads: RS, SS and Baseline follow an evolving MOVIE-like KG
  * (Figs 8/9). A sequence initialises the three evaluators on the base KG and
  * then applies [[EvolveSeq.Batches]] update batches; one op is one batch
  * applied to all three.
  */
final class EvolveSeq(args: Args, tracer: Tracer) extends Workload {
  import EvolveSeq._

  private var base: KGSummary = _
  private var warmupBase: KGSummary = _
  private var reservoir: Field = _
  private var seq: Sequence = _
  private var step: Step = _

  /** The measured phase runs at least these ops; the quality and per-layer
    * metrics cover them.
    */
  val qualityOps = QualitySequences * Batches
  private val initResults  = ArrayBuffer.empty[EvalResult]
  private val steps        = ArrayBuffer.empty[Step]
  private val untimedSteps = ArrayBuffer.empty[Step]

  def setup(): Unit = {
    val spark = tracer.span("jvm.session")(JobSession.build("kgbench-evolve-seq"))
    base = tracer.span("exp.load.movie_half")(Experiments.evolvingBase(spark))
    warmupBase = KGSummary(base.clusters.take(base.numClusters / WarmupShrink))
    reservoir = reservoirField()
  }

  /** (0 for measured or 1 for warm-up, index within that range) */
  private def local(i: Long): (Int, Long) =
    if (i >= Workload.WarmupBase) (1, i - Workload.WarmupBase) else (0, i)

  override def beforeOp(i: Long): Unit = {
    val (ns, k) = local(i)
    if (k % Batches == 0) {
      seq = new Sequence(args.seed, if (ns == 0) base else warmupBase, ns, k / Batches, tracer,
        withBaseline = true)
      if (i < qualityOps) initResults += seq.initTwcs
    }
  }

  def op(i: Long): Unit = step = seq.next()

  def check(i: Long): Boolean = {
    val ok = step.ok && reservoir.get(seq.rs).asInstanceOf[WeightedReservoir[_]].size == seq.rsCapacity
    if (i < qualityOps) {
      steps += step
      if (i % Batches == Batches - 1) runUntimed(i / Batches)
    }
    ok
  }

  /** [[UntimedSequences]] more sequences for the quality metrics, with RS and
    * SS only: no metric reads their Baseline. They run between measured
    * sequences, outside the measured time, spread evenly after sequences 0
    * until [[QualitySequences]], so that the measured ops span more of the
    * host's changes in speed.
    */
  private def runUntimed(measured: Long): Unit = {
    def done(k: Long) = k * UntimedSequences / QualitySequences
    (done(measured) until done(measured + 1)).foreach { u =>
      val s = new Sequence(args.seed, base, 0, QualitySequences + u, new Tracer(false),
        withBaseline = false)
      untimedSteps ++= Seq.fill(Batches)(s.next())
    }
  }

  /** The run measures whole sequences, so every run has the same mix of early
    * and late batches and ends with the same live heap.
    */
  override def mayEndAfter(n: Int): Boolean = n % Batches == 0

  private def qualitySteps: Seq[Step] = (steps ++ untimedSteps).toSeq

  /** New-annotation hours per update of RS plus SS. */
  def annotCostH: Double = Bench.mean(qualitySteps.map(s => s.rs.costHours + s.ss.costHours))

  def ciCoverage: Double = {
    val hits = qualitySteps.map(s => Seq(s.rs, s.ss).count(x => Checks.covers(x.estimate, x.moe, s.truth)))
    hits.sum.toDouble / (2 * hits.size)
  }

  def layerMetrics(): Map[String, Double] = {
    val evaluators = Seq("rs", "ss", "baseline")
    def med(name: String) = Bench.median(tracer.durations(name, _.measured))
    // RS update time late in a sequence over early in it, per complete sequence
    val rsBySeq = tracer.all.filter(s => s.measured && s.name == "evolve.update.rs")
      .groupBy(_.op / Batches).values.filter(_.size == Batches)
      .map { ss =>
        val ms = ss.sortBy(_.op).map(_.ms)
        Bench.median(ms.takeRight(5)) / Bench.median(ms.take(5))
      }
    def perUpdate(f: Step => Double) = Bench.mean(steps.map(f).toSeq)
    Map(
      "exp.load_ms.movie_half" -> tracer.durations("exp.load.movie_half").sum,
      "kg.batch_ms" -> med("kg.batch"),
      "core.eval_ms.twcs" -> med("core.eval.twcs"),
      "core.draws.twcs" -> Bench.mean(initResults.map(_.clusterDraws.toDouble).toSeq),
      "core.triples.twcs" -> Bench.mean(initResults.map(_.triples.toDouble).toSeq),
      "core.entity_reuse" -> initResults.map(_.clusterDraws).sum.toDouble / initResults.map(_.entities).sum,
      "evolve.rs_late_early" -> (if (rsBySeq.isEmpty) 0.0 else Bench.median(rsBySeq.toSeq)),
      "evolve.rs_insertions" -> perUpdate(_.rsInserted.toDouble),
      "evolve.rs_topup_draws" -> perUpdate(s => (s.rs.newEntities - s.rsInserted).toDouble),
      "evolve.hours.rs" -> perUpdate(_.rs.costHours),
      "evolve.hours.ss" -> perUpdate(_.ss.costHours),
      "evolve.hours.baseline" -> perUpdate(_.baseline.fold(0.0)(_.costHours))) ++
      evaluators.map(e => s"evolve.update_ms.$e" -> med(s"evolve.update.$e")) ++
      evaluators.map(e => s"evolve.init_ms.$e" -> med(s"evolve.init.$e"))
  }
}

object EvolveSeq {
  val Batches          = 30
  val M                = 5
  val UpdateAccuracy   = 0.9
  /** Sequences the measured phase runs at least. */
  val QualitySequences = 24
  /** Over 60 sequences of one seed, the RS plus SS cost per update of a
    * sequence ranged from 0.28 to 2.5 h. Over 24 sequences, annot_cost_h
    * spread by 0.23 (IQR / median) across ten seeds; over 48, by 0.16.
    */
  val UntimedSequences = 24
  /** Warm-up sequences run on the first 1/WarmupShrink of the base KG's
    * clusters. In traced runs, RS updates ran about 6 times slower until
    * about 300 of them had run; on the small base those 300 take seconds, not
    * half a minute.
    */
  val WarmupShrink     = 10

  /** One update of a sequence: the evaluators' results and the true accuracy
    * of the snapshot after it.
    */
  final case class Step(rs: SnapshotResult, ss: SnapshotResult, baseline: Option[SnapshotResult],
                        rsInserted: Long, truth: Double) {
    def ok: Boolean = (Seq(rs, ss) ++ baseline).forall(x => Checks.estimate(x.estimate, x.moe))
  }

  /** A sequence of updates to the base KG. Sequence `k` of namespace `ns`
    * (0 measured, 1 warm-up) draws from its own random streams, so it is the
    * same wherever it runs.
    */
  final class Sequence(seed: Long, base: KGSummary, ns: Int, k: Long, tracer: Tracer,
                       withBaseline: Boolean) {
    private val cfg = Experiments.DefaultCfg
    private def rng(what: Any*) = Seeds.rng(seed, "evolve-seq" +: ns +: k +: what: _*)

    val initTwcs: EvalResult = tracer.span("core.eval.twcs")(StaticEval.twcs(base, M, cfg, rng("rs-size")))
    val rsCapacity: Int = math.max(cfg.minClusterDraws, initTwcs.clusterDraws)
    val rs = new ReservoirEvaluator(rsCapacity, M, cfg, rng("rs"))
    tracer.span("evolve.init.rs")(rs.initialize(base))
    private val ss = new StratifiedEvaluator(M, cfg, rng("ss"))
    tracer.span("evolve.init.ss")(ss.initialize(base))
    private val bl = if (withBaseline) Some(new BaselineEvaluator(M, cfg, rng("baseline"))) else None
    bl.foreach(b => tracer.span("evolve.init.baseline")(b.initialize(base)))

    private var b = 0
    private var triples = base.numTriples
    private var correct = base.clusters.map(_.tau.toLong).sum

    def next(): Step = {
      // Ids are disjoint from the base KG and from every other batch.
      val idOffset = (1L << 40) + (((ns.toLong << 20) + k) * Batches + b) * (1L << 24)
      val batch = tracer.span("kg.batch")(LocalKGGen.movieClustersByTriples(
        base.numTriples / 10, LabelModels.REM(1 - UpdateAccuracy), rng("batch", b), idOffset))
      val blRes = bl.map(e => tracer.span("evolve.update.baseline")(e.applyUpdate(batch)))
      val inserted0 = rs.totalInsertions
      val rsRes = tracer.span("evolve.update.rs")(rs.applyUpdate(batch))
      val ssRes = tracer.span("evolve.update.ss")(ss.applyUpdate(batch))
      b += 1
      triples += batch.map(_.size.toLong).sum
      correct += batch.map(_.tau.toLong).sum
      Step(rsRes, ssRes, blRes, rs.totalInsertions - inserted0, correct.toDouble / triples)
    }
  }

  /** The RS reservoir is private to its evaluator; the check reads its size
    * through this field. Set-up looks it up, so that a change to the
    * evaluator's fields stops the run instead of failing every op's check.
    */
  private def reservoirField(): Field = {
    val f = classOf[ReservoirEvaluator].getDeclaredFields
      .find(f => classOf[WeightedReservoir[_]].isAssignableFrom(f.getType))
      .getOrElse(throw new IllegalStateException("ReservoirEvaluator has no WeightedReservoir field"))
    f.setAccessible(true)
    f
  }
}
