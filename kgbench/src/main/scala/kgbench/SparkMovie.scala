package kgbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core._
import repro.jobs.JobSession
import repro.kg.KGData
import repro.spark.{SparkEstimators, SparkSamplers}

import scala.collection.mutable.ArrayBuffer

/** The distributed path at bench scale: one op is a composite round of the
  * four DataFrame sampler/estimator pairs over a cached MOVIE-like KG.
  */
final class SparkMovie(args: Args, tracer: Tracer) extends Workload {
  import SparkMovie._

  private val z = repro.exp.Experiments.DefaultCfg.z
  private var spark: SparkSession = _
  private var counters: Option[SparkCounters] = None
  private var triples: DataFrame = _
  private var summaryDF: DataFrame = _
  private var kg: KGSummary = _
  private var byId: Map[Long, Cluster] = Map.empty
  private var rcsHi = 0.0

  // estimates of the op just run
  private var twcs, srs, rcs: Estimate = _
  private var reservoir: Array[Row] = Array.empty

  val qualityOps = 20
  private var covered, intervals = 0L
  private val twcsHours = ArrayBuffer.empty[Double]

  def setup(): Unit = {
    spark = tracer.span("jvm.session")(JobSession.build("kgbench-spark-movie"))
    if (tracer.enabled) counters = Some(new SparkCounters(spark.sparkContext))
    triples = tracer.span("kg.gen") {
      val t = KGData.movieLike(spark, Scale, seed = Seeds.of(args.seed, "spark-movie", "kg")).cache()
      t.count()
      t
    }
    kg = tracer.span("core.summary")(KGSummary.fromTriples(triples))
    summaryDF = tracer.span("spark.summary") {
      val s = SparkSamplers.clusterSummary(triples).cache()
      s.count()
      s
    }
    byId = kg.clusters.iterator.map(c => c.id -> c).toMap
    rcsHi = Checks.rcsBound(kg)
  }

  /** One sampler/estimator pair: traced as `spark.<name>`, and tagged for the
    * Spark counters with the op it belongs to.
    */
  private def call[A](name: String, i: Long)(body: => A): A =
    tracer.span(s"spark.$name")(counters match {
      case Some(c) => c.tagged(s"$name#$i")(body)
      case None    => body
    })

  private def seed(call: String, i: Long) = Seeds.of(args.seed, "spark-movie", call, i)

  private def twcsSample(i: Long) = SparkSamplers.twcsSample(triples, TwcsDraws, TwcsM, seed("twcs", i))
  private def srsSample(i: Long)  = SparkSamplers.srsTriples(triples, SrsN, seed("srs", i))

  def op(i: Long): Unit = {
    twcs = call("twcs", i)(SparkEstimators.clusterEstimate(twcsSample(i), z))
    srs = call("srs", i)(SparkEstimators.srsEstimate(srsSample(i), z))
    rcs = call("rcs", i) {
      val draws = SparkSamplers.rcsClusterDraws(triples, RcsDraws, seed("rcs", i))
      SparkEstimators.rcsEstimate(SparkSamplers.expandDraws(draws, triples),
        kg.numClusters.toLong, kg.numTriples, z)
    }
    reservoir = call("reservoir", i) {
      // merge the reservoir states of two halves of the KG
      val even = SparkSamplers.aResKeys(summaryDF.where(col("subject") % 2 === 0), seed("res-even", i))
      val odd  = SparkSamplers.aResKeys(summaryDF.where(col("subject") % 2 === 1), seed("res-odd", i))
      SparkSamplers.reservoirMerge(even, odd, ReservoirCapacity).collect()
    }
  }

  def check(i: Long): Boolean = {
    val ok = Checks.estimate(twcs.value, twcs.moe) && Checks.estimate(srs.value, srs.moe) &&
      Checks.estimate(rcs.value, rcs.moe, rcsHi) && reservoir.length == ReservoirCapacity
    if (i < qualityOps) Seq(twcs, srs, rcs).foreach { e =>
      intervals += 1
      if (Checks.covers(e.value, e.moe, kg.accuracy)) covered += 1
    }
    val samplesOk = i >= SampleChecks || checkSamples(i)
    ok && samplesOk
  }

  /** The op keeps only the estimates, as the program does. This draws the
    * TWCS and SRS samples of op `i` again from its seeds, untimed and
    * untagged, checks their shape and adds the TWCS sample's annotation cost.
    * It costs about half an op, so it covers the first [[SampleChecks]] ops.
    */
  private def checkSamples(i: Long): Boolean = {
    // per-draw annotation counts of the TWCS sample: (draw_id, subject) -> triples
    val draws = twcsSample(i).select("draw_id", "subject").collect()
      .groupBy(r => (r.getLong(0), r.getLong(1))).map { case (k, rs) => k -> rs.length }
    val tracker = new CostTracker()
    draws.foreach { case ((_, subject), n) => tracker.record(subject, byId(subject).size, n) }
    twcsHours += tracker.hours
    draws.size == TwcsDraws && draws.keys.map(_._1).size == TwcsDraws &&
      draws.values.forall(_ <= TwcsM) && srsSample(i).count() == SrsN
  }

  def annotCostH: Double = Bench.mean(twcsHours.toSeq)
  def ciCoverage: Double = covered.toDouble / intervals

  def layerMetrics(): Map[String, Double] = {
    val counts = counters.get.snapshot()
    val opWallMs = tracer.durations("bench.op", _.measured).sum
    val measuredCounts = counts.filter { case (tag, _) =>
      val i = tag.dropWhile(_ != '#').drop(1).toLong
      i >= 0 && i < Workload.WarmupBase
    }
    val perCall = Layers.SparkCalls.flatMap { c =>
      // counters over the fixed op range, so that they repeat for a seed
      val cs = (0 until qualityOps).flatMap(i => counts.get(s"$c#$i"))
      def med(f: SparkCounters.Counts => Double) = Bench.median(cs.map(f))
      Seq(
        s"spark.$c.ms" -> Bench.median(tracer.durations(s"spark.$c", _.measured)),
        s"spark.$c.jobs" -> med(_.jobs.toDouble),
        s"spark.$c.stages" -> med(_.stages.toDouble),
        s"spark.$c.tasks" -> med(_.tasks.toDouble),
        s"spark.$c.one_task_stages" -> med(_.oneTaskStages.toDouble),
        s"spark.$c.shuffle_mb" -> med(_.shuffleBytes / 1e6),
        s"spark.$c.task_ms" -> med(_.taskMs.toDouble),
        s"spark.$c.codegen_classes" -> med(_.codegenClasses.toDouble))
    }
    val slots = spark.sparkContext.defaultParallelism
    val n = tracer.durations("bench.op", _.measured).size
    (perCall ++ Seq(
      "kg.gen_ms" -> tracer.durations("kg.gen").sum,
      "core.summary_ms" -> tracer.durations("core.summary").sum,
      "spark.slot_util" -> measuredCounts.values.map(_.taskMs).sum / (opWallMs * slots),
      "spark.codegen_ms" -> measuredCounts.values.map(_.codegenNanos).sum / 1e6 / n
    )).toMap
  }
}

object SparkMovie {
  val Scale             = 0.1
  val TwcsDraws         = 60
  val TwcsM             = 5
  val SrsN              = 200
  val RcsDraws          = 200
  val ReservoirCapacity = 50
  /** Ops whose samples are drawn again and checked, from op 0. */
  val SampleChecks      = 3
}
