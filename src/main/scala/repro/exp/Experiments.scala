package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.core.StaticEval.McStats
import repro.evolve.SnapshotResult
import repro.evolve.IncrementalEval._
import repro.kg.{KGData, LabelModels, LocalKGGen}
import repro.kgeval.KGEval

import scala.collection.immutable.SeqMap
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** One harness per evaluation-section table (DESIGN.md §4). Each returns the
  * structured results (for bench assertions) plus pre-formatted report lines
  * (printed by the table's bench suite and transcribed into EXPERIMENTS.md).
  * Trial counts and seeds are constants: the reproduced digits are a function
  * of them. No table needs a SparkSession: each runs on [[ExpData]]'s
  * driver-built summaries. Tables 4, 5 and 7 are lists of Monte-Carlo cells,
  * each KG's m* and strata computed once, outside every run.
  */
object Experiments {

  /** ε=5%, α=5% — the paper's default evaluation task (§7.1.5). */
  val DefaultCfg: EvalConfig = EvalConfig()

  private def pctS(x: Double): String = f"${x * 100}%.1f%%"

  // ================================================================
  // Table 3 — data characteristics of the (synthetic) KGs
  // ================================================================

  final case class KgStats(name: String, entities: Int, triples: Long,
                           avgClusterSize: Double, goldAccuracy: Double)

  def table3(): (Seq[KgStats], Seq[String]) = {
    val kgs = Seq(
      "NELL-like"  -> ExpData.Nell,
      "YAGO-like"  -> ExpData.Yago,
      "MOVIE-like" -> ExpData.Movie)
    val stats = kgs.map { case (name, kg) =>
      KgStats(name, kg.numClusters, kg.numTriples, kg.meanClusterSize, kg.accuracy)
    }
    val lines = Seq(f"${"KG"}%-12s ${"entities"}%10s ${"triples"}%10s ${"avg size"}%9s ${"gold acc"}%9s") ++
      stats.map(s => f"${s.name}%-12s ${s.entities}%10d ${s.triples}%10d ${s.avgClusterSize}%9.2f ${pctS(s.goldAccuracy)}%9s")
    (stats, lines)
  }

  // ================================================================
  // Tables 4, 5 and 7 — Monte-Carlo cells
  // ================================================================

  /** A Monte-Carlo table: statistics per (KG, method), in row order. */
  type McTable = SeqMap[(String, String), McStats]

  /** One Monte-Carlo cell of a static-evaluation table: `trials` runs of
    * `run` on the KG named `kg`, their RNGs drawn from a master seeded by
    * `seed`.
    */
  private final case class Cell(kg: String, method: String, trials: Int, seed: Long,
                                run: Random => EvalResult) {
    def stats: McStats = StaticEval.monteCarlo(trials, seed)(run)
  }

  private def runCells(cells: Seq[Cell]): McTable =
    cells.map(c => (c.kg, c.method) -> c.stats).to(SeqMap)

  /** Table 4 — manual evaluation cost on MOVIE: SRS vs TWCS(m=10). */
  def table4(): (McTable, Seq[String]) = {
    val kg = ExpData.Movie
    val results = runCells(Seq(
      Cell("MOVIE", "SRS", 200, 1001L, StaticEval.srs(kg, DefaultCfg, _)),
      Cell("MOVIE", "TWCS(m=10)", 200, 1501L, StaticEval.twcs(kg, 10, DefaultCfg, _))))
    val lines = Seq(f"${"method"}%-11s ${"entities"}%9s ${"triples"}%8s ${"hours"}%6s ${"estimate"}%9s") ++
      results.map { case ((_, method), st) =>
        f"$method%-11s ${st.meanEntities}%9.1f ${st.meanTriples}%8.1f ${st.meanCostHours}%6.2f ${pctS(st.meanEstimate)}%9s"
      }
    (results, lines)
  }

  def optimalM(kg: KGSummary): Int = Variance.optimalM(kg)

  /** Table 5 — SRS / RCS / WCS / TWCS(m*) on MOVIE, NELL and YAGO. MOVIE runs
    * 100 trials, and RCS and WCS stop there at 5 hours, as in the paper.
    */
  def table5(): (McTable, Seq[String]) = {
    val capped = DefaultCfg.copy(maxCostSeconds = 5.0 * 3600)
    val kgs = Seq(("MOVIE", ExpData.Movie, 100, capped),
                  ("NELL", ExpData.Nell, 200, DefaultCfg),
                  ("YAGO", ExpData.Yago, 200, DefaultCfg))
    val cells = kgs.zipWithIndex.flatMap { case ((name, kg, trials, clusterCfg), i) =>
      val (m, s) = (optimalM(kg), 2001L + 4 * i)
      Seq(
        Cell(name, "SRS", trials, s + 1, StaticEval.srs(kg, DefaultCfg, _)),
        Cell(name, "RCS", trials, s + 2, StaticEval.rcs(kg, clusterCfg, _)),
        Cell(name, "WCS", trials, s + 3, StaticEval.wcs(kg, clusterCfg, _)),
        Cell(name, "TWCS", trials, s + 4, StaticEval.twcs(kg, m, DefaultCfg, _)))
    }
    val results = runCells(cells)
    (results, renderPerKg(results))
  }

  /** Table 7 — TWCS with stratification (cum √F) vs oracle stratification.
    * Strata counts follow the paper: NELL 2, MOVIE/MOVIE-SYN 4. Oracle
    * stratification on MOVIE is N/A in the paper (no full labels); we mirror
    * that to keep the table comparable.
    */
  def table7(): (McTable, Seq[String]) = {
    val seed = 4001L

    def runsFor(name: String, kg: KGSummary, h: Int, trials: Int, s: Long,
                withOracle: Boolean): Seq[Cell] = {
      val m = optimalM(kg)
      val size = Stratification.sizeStrata(kg, h)
      Seq(
        Cell(name, "SRS", trials, s + 1, StaticEval.srs(kg, DefaultCfg, _)),
        Cell(name, "TWCS", trials, s + 2, StaticEval.twcs(kg, m, DefaultCfg, _)),
        Cell(name, "TWCS w/ Size Strat", trials, s + 3, StaticEval.twcsStratified(size, m, DefaultCfg, _))) ++
      Option.when(withOracle) {
        val oracle = Stratification.oracleStrata(kg, h)
        Cell(name, "TWCS w/ Oracle Strat", trials, s + 4, StaticEval.twcsStratified(oracle, m, DefaultCfg, _))
      }
    }

    val results = runCells(
      runsFor("NELL", ExpData.Nell, 2, 200, seed, withOracle = true) ++
      runsFor("MOVIE-SYN", ExpData.MovieSyn, 4, 100, seed + 100, withOracle = true) ++
      runsFor("MOVIE", ExpData.Movie, 4, 100, seed + 200, withOracle = false))
    (results, renderPerKg(results))
  }

  private def renderPerKg(results: McTable): Seq[String] =
    f"${"KG"}%-10s ${"method"}%-22s ${"hours"}%14s ${"estimate"}%16s ${"conv"}%6s" +:
      results.toSeq.map { case ((kgName, method), st) =>
        f"$kgName%-10s $method%-22s ${f"${st.meanCostHours}%.2f±${st.sdCostHours}%.2f"}%14s " +
          f"${f"${pctS(st.meanEstimate)}±${st.sdEstimate * 100}%.1f"}%16s ${st.convergedFrac}%6.2f"
      }

  // ================================================================
  // Table 6 — TWCS vs KGEval on NELL and YAGO
  // ================================================================

  final case class Table6Row(kg: String, method: String, machineMillis: Double,
                             annotated: Double, hours: Double, estimate: Double)

  def table6(): (Seq[Table6Row], Seq[String]) = {
    val (trials, kgEvalReps, seed) = (200, 3, 3001L)
    val kgs = Seq(("NELL", KGData.nellLaw(KGData.NellSeed), ExpData.Nell),
                  ("YAGO", KGData.yagoLaw(KGData.YagoSeed), ExpData.Yago))
    val rows = kgs.flatMap { case (kgName, law, kg) =>
      val triples = ExpData.kgEvalTriples(law)

      val kge = (0 until kgEvalReps).map(r => KGEval.run(triples, seed = seed + r))
      // KGEval's annotation set is triple-level: every seed is its own
      // entity-identification task (Eq 4 with |E'| = |G'| = #seeds).
      val kgeHours  = Stats.mean(kge.map(r => CostModel.seconds(r.annotated.toLong, r.annotated.toLong) / 3600.0))
      val kgeMachine = Stats.mean(kge.map(_.machineMillis.toDouble))
      val kgeAnnot  = Stats.mean(kge.map(_.annotated.toDouble))
      val kgeEst    = Stats.mean(kge.map(_.estimate))

      // m* is the oracle's choice, not part of TWCS's machine time
      val m = optimalM(kg)
      val t0 = System.nanoTime()
      val twcs = Cell(kgName, "TWCS", trials, seed + 100, StaticEval.twcs(kg, m, DefaultCfg, _)).stats
      val twcsMachine = (System.nanoTime() - t0) / 1e6 / trials // per evaluation

      Seq(
        Table6Row(kgName, "KGEval", kgeMachine, kgeAnnot, kgeHours, kgeEst),
        Table6Row(kgName, "TWCS", twcsMachine, twcs.meanTriples, twcs.meanCostHours, twcs.meanEstimate))
    }
    val lines = Seq(f"${"KG"}%-6s ${"method"}%-8s ${"machine(ms)"}%12s ${"#annotated"}%11s ${"hours"}%7s ${"estimate"}%9s") ++
      rows.map(r => f"${r.kg}%-6s ${r.method}%-8s ${r.machineMillis}%12.3f ${r.annotated}%11.1f ${r.hours}%7.2f ${pctS(r.estimate)}%9s")
    (rows, lines)
  }

  // ================================================================
  // Evolving KG — Fig 8 (single batch) and Fig 9 (sequence) as tables
  // ================================================================

  final case class EvolvingRow(setting: String, baselineH: Double, rsH: Double,
                               ssH: Double, overallAcc: Double)

  /** Second-stage size of every evolving-KG evaluator. */
  private val EvolvingM = 5

  /** Accuracy of the update batches along a sequence (Fig 9). */
  private val SequenceAcc = 0.9

  /** Update batches per sequence (Fig 9). */
  private val SequenceBatches = 30

  /** The evolving experiments' base KG, [[ExpData.MovieHalf]]. This loader
    * exists only for `kgbench`, which calls it with a session; it goes with
    * the benchmark change of ROADMAP item 7.
    */
  def evolvingBase(spark: SparkSession): KGSummary = ExpData.MovieHalf

  /** Update batches of `frac`·|base| triples at accuracy `acc`, each drawn
    * from `rng` when it is taken. Cluster ids come from a running counter
    * above the base KG's largest id, so no two clusters of a sequence share
    * one.
    */
  def updateBatches(base: KGSummary, frac: Double, acc: Double,
                    rng: Random): Iterator[Array[Cluster]] = {
    var nextId = base.clusters.iterator.map(_.id).max + 1
    Iterator.continually {
      val batch = LocalKGGen.movieClustersByTriples((base.numTriples * frac).toLong,
        LabelModels.REM(1 - acc), rng, nextId)
      nextId += batch.length
      batch
    }
  }

  /** Σ τ_i: the correct triples of `clusters`. */
  private def correctTriples(clusters: Array[Cluster]): Long = clusters.iterator.map(_.tau.toLong).sum

  /** An evolving evaluator's start: given the base KG, the run's RNG and the
    * injected initial bias, it builds the evaluator on the base KG and returns
    * its update function.
    */
  private type Start = (KGSummary, Random, Double) => Array[Cluster] => SnapshotResult

  /** Baseline re-evaluates the whole KG on every update, so it takes no bias. */
  private val baselineStart: Start = (base, rng, _) => {
    val ev = new BaselineEvaluator(EvolvingM, DefaultCfg, rng)
    ev.initialize(base)
    ev.applyUpdate
  }

  /** RS with |R| set by a static TWCS run on the base KG, its reservoir built. */
  private val rsStart: Start = (base, rng, bias) => {
    val init = StaticEval.twcs(base, EvolvingM, DefaultCfg, rng)
    val ev = new ReservoirEvaluator(math.max(DefaultCfg.minClusterDraws, init.clusterDraws),
      EvolvingM, DefaultCfg, rng, initBias = bias)
    ev.initialize(base)
    ev.applyUpdate
  }

  private val ssStart: Start = (base, rng, bias) => {
    val ev = new StratifiedEvaluator(EvolvingM, DefaultCfg, rng, initBias = bias)
    ev.initialize(base)
    ev.applyUpdate
  }

  /** One single-batch comparison point: mean per-update cost of Baseline / RS
    * / SS over 50 runs, for an update of `sizeFrac`·|base| triples at
    * accuracy `acc`. Each run's batch and evaluators draw from one RNG, in
    * that order.
    */
  private def singleBatchPoint(base: KGSummary, sizeFrac: Double, acc: Double,
                               seed: Long): EvolvingRow = {
    val trials = 50
    val baseCorrect = correctTriples(base.clusters)
    var accSum = 0.0
    val hours = Seq.fill(3)(ArrayBuffer[Double]())
    for (t <- 0 until trials) {
      val rng = new Random(seed + t)
      val batch = updateBatches(base, sizeFrac, acc, rng).next()
      Seq(baselineStart, rsStart, ssStart).zip(hours).foreach { case (start, h) =>
        h += start(base, rng, 0.0)(batch).costHours
      }
      accSum += (baseCorrect + correctTriples(batch)).toDouble /
        (base.numTriples + batch.map(_.size.toLong).sum)
    }
    val Seq(bs, rs, ss) = hours.map(h => Stats.mean(h.toSeq))
    EvolvingRow(f"size=${sizeFrac * 100}%.0f%% acc=${acc * 100}%.0f%%", bs, rs, ss, accSum / trials)
  }

  def evolvingSingleBatch(): (Seq[EvolvingRow], Seq[String]) = {
    val seed = 5001L
    val base = ExpData.MovieHalf
    val bySize = Seq(0.1, 0.2, 0.3, 0.4, 0.5).zipWithIndex.map { case (f, i) =>
      singleBatchPoint(base, f, 0.9, seed + i * 1000)
    }
    val byAcc = Seq(0.2, 0.4, 0.6, 0.8).zipWithIndex.map { case (a, i) =>
      singleBatchPoint(base, 0.5, a, seed + 50000 + i * 1000)
    }
    val rows = bySize ++ byAcc
    val lines = Seq(f"${"setting"}%-22s ${"Baseline(h)"}%12s ${"RS(h)"}%8s ${"SS(h)"}%8s ${"overall acc"}%12s") ++
      rows.map(r => f"${r.setting}%-22s ${r.baselineH}%12.2f ${r.rsH}%8.2f ${r.ssH}%8.2f ${pctS(r.overallAcc)}%12s")
    (rows, lines)
  }

  /** Sequence-of-updates result: per-batch estimates and truth. */
  final case class SequenceRun(estimates: Seq[Double], truths: Seq[Double])

  /** Apply [[SequenceBatches]] 10%-of-base updates (accuracy [[SequenceAcc]])
    * to the evaluator that `start` builds and record every snapshot estimate,
    * optionally starting from an injected bad estimate (`bias` ≈ ±0.07 as in
    * Fig 9-2/9-3).
    */
  private def sequenceRun(base: KGSummary, start: Start, bias: Double,
                          seed: Long): SequenceRun = {
    val rng = new Random(seed)
    val update = start(base, rng, bias)
    val updates = updateBatches(base, 0.1, SequenceAcc, rng)
    var triples = base.numTriples
    var correct = correctTriples(base.clusters)
    val (estimates, truths) = (0 until SequenceBatches).map { _ =>
      val batch = updates.next()
      triples += batch.map(_.size.toLong).sum
      correct += correctTriples(batch)
      (update(batch).estimate, correct.toDouble / triples)
    }.unzip
    SequenceRun(estimates, truths)
  }

  /** Unbiasedness (Fig 9-1): estimates averaged over runs, plus the
    * fault-injection experiment (Fig 9-2/9-3) showing RS recovering from a
    * ±7% initial mis-estimate faster than SS. Fault trajectories report the
    * *signed* mean (estimate - truth) over 20 independent runs — the
    * residual bias, with per-run sampling noise averaged out. (The +7%
    * injection clamps at 100%, so the over case starts from a smaller
    * effective bias than the under case — accuracy cannot exceed 1.)
    */
  def evolvingSequence():
      (Map[String, Seq[Double]], Map[String, (Seq[Double], Double)], Seq[String]) = {
    val (runs, faultRuns, seed) = (20, 20, 6001L)
    val base = ExpData.MovieHalf

    def meanTrajectory(start: Start): Seq[Double] = {
      val trajs = (0 until runs).map(r =>
        sequenceRun(base, start, 0.0, seed + r * 97).estimates)
      (0 until SequenceBatches).map(b => Stats.mean(trajs.map(_(b))))
    }

    /** (signed bias trajectory averaged over runs, mean batch-to-batch
      * |Δestimate| — RS re-randomizes its pool so its single runs can jump
      * away from a bad start, which is the paper's Fig 9 fault-tolerance
      * argument; SS runs move only by stratum-weight dilution).
      */
    def faultStats(start: Start, bias: Double, s: Long): (Seq[Double], Double) = {
      val runs = (0 until faultRuns).map(r =>
        sequenceRun(base, start, bias, s + r * 131))
      val trajs = runs.map(run =>
        run.estimates.zip(run.truths).map { case (e, t) => e - t })
      val traj = (0 until SequenceBatches).map(b => Stats.mean(trajs.map(_(b))))
      val volatility = Stats.mean(runs.map(run =>
        Stats.mean(run.estimates.sliding(2).map(w => math.abs(w(1) - w(0))).toSeq)))
      (traj, volatility)
    }

    val unbiased = Map("RS" -> meanTrajectory(rsStart), "SS" -> meanTrajectory(ssStart))
    val faults = Map(
      "RS-over"  -> faultStats(rsStart, +0.07, seed + 7777),
      "SS-over"  -> faultStats(ssStart, +0.07, seed + 7777),
      "RS-under" -> faultStats(rsStart, -0.07, seed + 8888),
      "SS-under" -> faultStats(ssStart, -0.07, seed + 8888))

    val marks = Seq(0, 4, 9, 19, 29)
    val lines =
      Seq("mean estimate by batch (truth ≈ 90%):") ++
      unbiased.toSeq.sortBy(_._1).map { case (mth, tr) =>
        f"$mth%-3s " + marks.map(b => f"b${b + 1}%d=${pctS(tr(b))}").mkString("  ")
      } ++
      Seq(s"fault-injection residual bias (estimate - truth) by batch (mean of $faultRuns runs)",
          "and per-run volatility (mean |estimate move| per batch):") ++
      faults.toSeq.sortBy(_._1).map { case (name, (tr, vol)) =>
        f"$name%-9s " + marks.map(b => f"b${b + 1}%d=${tr(b) * 100}%+.1f%%").mkString("  ") +
          f"  vol=${vol * 100}%.2f%%"
      }
    (unbiased, faults, lines)
  }
}
