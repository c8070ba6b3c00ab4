package kgbench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.exp.{ExpData, Experiments}
import repro.jobs.JobSession

import scala.collection.mutable
import scala.util.Random

/** Output checks shared by the workloads. */
object Checks {
  /** An estimate inside [0, hi] with a finite, non-negative MoE. */
  def estimate(value: Double, moe: Double, hi: Double = 1.0): Boolean =
    value >= 0 && value <= hi && moe >= 0 && !moe.isInfinite && !moe.isNaN

  /** RCS scales each draw by N/M, so its estimate is bounded by N·max τ / M, not 1. */
  def rcsBound(kg: KGSummary): Double =
    kg.numClusters.toDouble * kg.clusters.map(_.tau).max / kg.numTriples

  def covers(value: Double, moe: Double, truth: Double): Boolean = math.abs(value - truth) <= moe
}

/** The driver Monte-Carlo path: one op is one replicate of every static cell
  * that Tables 4, 5 and 7 evaluate, with their configurations.
  */
final class McTables(args: Args, tracer: Tracer) extends Workload {
  import McTables.Cell

  private val cfg    = Experiments.DefaultCfg
  private val capped = cfg.copy(maxCostSeconds = 5.0 * 3600) // Table 5's MOVIE cap on RCS/WCS

  private var cells: IndexedSeq[Cell] = IndexedSeq.empty
  private var results: Array[EvalResult] = Array.empty
  private var rcsBounds: Map[KGSummary, Double] = Map.empty
  private var maxSizes: Map[KGSummary, Int] = Map.empty

  val qualityOps = 200
  private var covered, intervals = 0L
  private val payHours = mutable.ArrayBuffer.empty[Double]
  private final class DesignTotals { var calls, draws, triples, entities = 0L }
  private val totals = mutable.LinkedHashMap.empty[String, DesignTotals]

  def setup(): Unit = {
    val spark: SparkSession = tracer.span("jvm.session")(JobSession.build("kgbench-mc-tables"))
    val nell  = tracer.span("exp.load.nell")(ExpData.nell(spark))
    val yago  = tracer.span("exp.load.yago")(ExpData.yago(spark))
    val movie = tracer.span("exp.load.movie")(ExpData.movie(spark))
    val syn   = tracer.span("exp.load.movie_syn")(ExpData.movieSyn(spark))
    cells = tracer.span("core.prep") {
      val m = Seq(nell, yago, movie, syn).map(kg => kg -> Experiments.optimalM(kg)).toMap
      def srs(kg: KGSummary) = (r: Random) => StaticEval.srs(kg, cfg, r)
      def twcs(kg: KGSummary, mm: Int) = (r: Random) => StaticEval.twcs(kg, mm, cfg, r)
      def strat(s: Seq[Stratification.StratumPop], mm: Int) =
        (r: Random) => StaticEval.twcsStratified(s, mm, cfg, r)
      val t5 = for ((name, kg) <- Seq("MOVIE" -> movie, "NELL" -> nell, "YAGO" -> yago)) yield {
        val c = if (kg eq movie) capped else cfg
        Seq(
          Cell(s"t5/$name/SRS", "srs", kg, cfg, srs(kg)),
          Cell(s"t5/$name/RCS", "rcs", kg, c, r => StaticEval.rcs(kg, c, r)),
          Cell(s"t5/$name/WCS", "wcs", kg, c, r => StaticEval.wcs(kg, c, r)),
          Cell(s"t5/$name/TWCS", "twcs", kg, cfg, twcs(kg, m(kg))))
      }
      val t7 = for ((name, kg, h, oracle) <- Seq(("NELL", nell, 2, true), ("MOVIE-SYN", syn, 4, true),
                                                  ("MOVIE", movie, 4, false))) yield {
        Seq(
          Cell(s"t7/$name/SRS", "srs", kg, cfg, srs(kg)),
          Cell(s"t7/$name/TWCS", "twcs", kg, cfg, twcs(kg, m(kg))),
          Cell(s"t7/$name/SizeStrat", "strat", kg, cfg, strat(Stratification.sizeStrata(kg, h), m(kg)))) ++
        (if (oracle) Seq(Cell(s"t7/$name/OracleStrat", "strat", kg, cfg,
                              strat(Stratification.oracleStrata(kg, h), m(kg))))
         else Nil)
      }
      (Seq(Cell("t4/MOVIE/SRS", "srs", movie, cfg, srs(movie)),
           Cell("t4/MOVIE/TWCS(m=10)", "twcs", movie, cfg, twcs(movie, 10))) ++
        t5.flatten ++ t7.flatten).toIndexedSeq
    }
    rcsBounds = cells.map(_.kg).distinct.map(kg => kg -> Checks.rcsBound(kg)).toMap
    maxSizes = cells.map(_.kg).distinct.map(kg => kg -> kg.clusters.map(_.size).max).toMap
    results = new Array[EvalResult](cells.size)
  }

  def op(i: Long): Unit = {
    var j = 0
    while (j < cells.size) {
      val c = cells(j)
      results(j) = tracer.span(s"core.eval.${c.design}")(c.run(Seeds.rng(args.seed, "mc-tables", c.name, i)))
      j += 1
    }
  }

  /** Capped cells may overshoot the budget by at most one batch of fully
    * annotated clusters.
    */
  private def withinBudget(c: Cell, r: EvalResult): Boolean =
    c.cfg.maxCostSeconds.isInfinite || r.costSeconds <= c.cfg.maxCostSeconds +
      c.cfg.clusterBatch * c.cfg.cost.seconds(1, maxSizes(c.kg).toLong)

  def check(i: Long): Boolean = {
    val ok = cells.indices.forall { j =>
      val (c, r) = (cells(j), results(j))
      val hi = if (c.design == "rcs") rcsBounds(c.kg) else 1.0
      Checks.estimate(r.estimate, r.moe, hi) && r.triples >= 1 && withinBudget(c, r)
    }
    if (i < qualityOps) cells.indices.foreach { j =>
      val (c, r) = (cells(j), results(j))
      intervals += 1
      if (Checks.covers(r.estimate, r.moe, c.kg.accuracy)) covered += 1
      if (c.design == "twcs" || c.design == "strat") payHours += r.costHours
      val t = totals.getOrElseUpdate(c.design, new DesignTotals)
      t.calls += 1; t.draws += r.clusterDraws; t.triples += r.triples; t.entities += r.entities
    }
    ok
  }

  def annotCostH: Double = Bench.mean(payHours.toSeq)
  def ciCoverage: Double = covered.toDouble / intervals

  def layerMetrics(): Map[String, Double] = {
    val loads = Seq("nell", "yago", "movie", "movie_syn").map { k =>
      s"exp.load_ms.$k" -> tracer.durations(s"exp.load.$k").sum
    }
    val evals = totals.keys.toSeq.map { d =>
      s"core.eval_ms.$d" -> Bench.median(tracer.durations(s"core.eval.$d", _.measured))
    }
    val perCall = totals.toSeq.flatMap { case (d, t) =>
      Seq(s"core.triples.$d" -> t.triples.toDouble / t.calls) ++
        (if (d == "srs") Nil else Seq(s"core.draws.$d" -> t.draws.toDouble / t.calls))
    }
    val clusterDesigns = totals.filter(_._1 != "srs").values
    (loads ++ evals ++ perCall ++ Seq(
      "core.prep_ms" -> tracer.durations("core.prep").sum,
      "core.entity_reuse" -> clusterDesigns.map(_.draws).sum.toDouble / clusterDesigns.map(_.entities).sum
    )).toMap
  }
}

object McTables {
  final case class Cell(name: String, design: String, kg: KGSummary, cfg: EvalConfig,
                        run: Random => EvalResult)
}
