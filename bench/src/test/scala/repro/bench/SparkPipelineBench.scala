package repro.bench

import scala.util.Random

import repro.SparkSpec
import repro.core.{Estimators, KGSummary, LocalSamplers, Stats}
import repro.kg.KGData
import repro.spark.{SparkEstimators, SparkSamplers}

/** End-to-end distributed pipeline at bench scale (~260K triples): generate a
  * MOVIE-like KG as a DataFrame, sample with the DataFrame samplers, estimate
  * with the DataFrame estimators — the exact dataflow the driver-side
  * Monte-Carlo replicates (DESIGN.md §3.4), exercised at SF≈0.1.
  */
class SparkPipelineBench extends SparkSpec {
  private val z95 = Stats.zAlpha(0.05)

  private lazy val triples = KGData.movieLike(spark, scale = 0.1, seed = 23).cache()
  private lazy val kg      = KGSummary.fromTriples(triples)

  test("distributed TWCS pipeline estimates the KG accuracy") {
    // caches `triples` and collects their summary before the clock starts, and
    // runs one call of another seed first, so the printed time is a warm
    // sample and its estimate alone, not the JVM's first planning and codegen
    val kgTriples = kg.numTriples
    SparkEstimators.clusterEstimate(SparkSamplers.twcsSample(triples, n = 60, m = 5, seed = 124), z95)
    val t0 = System.nanoTime()
    val sample = SparkSamplers.twcsSample(triples, n = 60, m = 5, seed = 24)
    val est = SparkEstimators.clusterEstimate(sample, z95)
    val ms = (System.nanoTime() - t0) / 1e6
    info(f"== Spark pipeline: TWCS n=60 m=5 on $kgTriples triples: " +
      f"est=${est.value * 100}%.1f%% moe=${est.moe * 100}%.1f%% (${ms}%.0f ms) ==")
    assert(math.abs(est.value - kg.accuracy) < 0.06)
    assert(est.moe < 0.08)
    // the sample's clusters are the driver's 60 WCS draws from new Random(24)
    val drawn = sample.select("draw_id", "subject").collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap.toSeq.sortBy(_._1).map(_._2)
    val rng = new Random(24)
    assert(drawn == Seq.fill(60)(LocalSamplers.wcsDraw(kg, rng).cluster.id))
  }

  test("distributed SRS pipeline estimates the KG accuracy") {
    val sample = SparkSamplers.srsTriples(triples, n = 200, seed = 25)
    val est = SparkEstimators.srsEstimate(sample, z95)
    info(f"== Spark pipeline: SRS n=200: est=${est.value * 100}%.1f%% moe=${est.moe * 100}%.1f%% ==")
    assert(math.abs(est.value - kg.accuracy) < 0.06)
  }

  test("distributed RCS pipeline applies the Eq 7 scaling") {
    val draws  = SparkSamplers.rcsClusterDraws(triples, n = 200, seed = 26)
    val sample = SparkSamplers.expandDraws(draws, triples)
    val est = SparkEstimators.rcsEstimate(sample, kg.numClusters.toLong, kg.numTriples, z95)
    info(f"== Spark pipeline: RCS n=200: est=${est.value * 100}%.1f%% moe=${est.moe * 100}%.1f%% ==")
    // RCS is unbiased but high-variance; just require the right ballpark
    assert(math.abs(est.value - kg.accuracy) < 0.25)
    // Spark draws the driver's clusters, so it must give the driver's estimate
    val rng = new Random(26)
    val local = Estimators.meanOfDraws(
      Seq.fill(200)(LocalSamplers.rcsDraw(kg, rng).hits * (kg.numClusters.toDouble / kg.numTriples)), z95)
    assert(math.abs(est.value - local.value) < 1e-9 && math.abs(est.moe - local.moe) < 1e-9,
      s"Spark $est against driver $local")
  }

  test("distributed reservoir maintains a weighted sample across an update") {
    val summary = SparkSamplers.clusterSummary(triples)
    val baseRes = SparkSamplers.reservoirMerge(
      SparkSamplers.aResKeys(summary, seed = 27),
      SparkSamplers.aResKeys(summary, seed = 27).limit(0), // empty incoming
      capacity = 50)
    assert(baseRes.count() == 50)

    val update = SparkSamplers.clusterSummary(
      KGData.movieLike(spark, scale = 0.02, seed = 29)
        .withColumn("subject", org.apache.spark.sql.functions.col("subject") + 10000000L))
    val merged = SparkSamplers.reservoirMerge(baseRes,
      SparkSamplers.aResKeys(update, seed = 30), capacity = 50)
    assert(merged.count() == 50)
    // weighted reservoir over ~10x more base triples keeps mostly base clusters
    val newcomers = merged.where("subject >= 10000000").count()
    info(s"== Spark pipeline: reservoir update admitted $newcomers/50 new clusters ==")
    assert(newcomers < 25)
  }
}
