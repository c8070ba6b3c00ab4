package repro.spark

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.{EvalConfig, Estimators}

class SparkEstimatorsSpec extends SparkSpec {
  import spark.implicits._

  private val z95 = EvalConfig().z

  /** Three draws with per-draw means 1.0, 0.5, 2/3. */
  private lazy val sample: DataFrame = Seq(
    (0L, 1L, 1), (0L, 1L, 1),
    (1L, 2L, 1), (1L, 2L, 0),
    (2L, 3L, 1), (2L, 3L, 0), (2L, 3L, 1)
  ).toDF("draw_id", "subject", "label").cache()

  test("clusterEstimate equals the driver-side mean-of-draws estimator") {
    val spark = SparkEstimators.clusterEstimate(sample, z95)
    val local = Estimators.meanOfDraws(Seq(1.0, 0.5, 2.0 / 3), z95)
    assert(math.abs(spark.value - local.value) < 1e-12)
    assert(math.abs(spark.moe - local.moe) < 1e-12)
  }

  test("clusterEstimate of a single draw has infinite MoE") {
    val one = sample.where("draw_id = 0")
    assert(SparkEstimators.clusterEstimate(one, z95).moe.isPosInfinity)
  }

  test("srsEstimate equals the driver-side Eq 5 estimator") {
    val flat = sample.select("subject", "label")
    val est  = SparkEstimators.srsEstimate(flat, z95)
    val local = Estimators.srs(correct = 5, n = 7, z95)
    assert(math.abs(est.value - local.value) < 1e-12)
    assert(math.abs(est.moe - local.moe) < 1e-12)
  }

  test("srsEstimate of an all-correct sample has zero MoE") {
    val allOk = Seq((1L, 1), (2L, 1), (3L, 1)).toDF("subject", "label")
    val est = SparkEstimators.srsEstimate(allOk, z95)
    assert(est.value == 1.0 && est.moe == 0.0)
  }

  test("rcsEstimate applies the N/M scaling of Eq 7") {
    // draws: tau = 2 and tau = 1; N=4 clusters, M=12 triples -> values 2/3, 1/3
    val s = Seq((0L, 1), (0L, 1), (1L, 1), (1L, 0)).toDF("draw_id", "label")
    val est = SparkEstimators.rcsEstimate(s, numClusters = 4, numTriples = 12, z95)
    val local = Estimators.meanOfDraws(Seq(2.0 / 3, 1.0 / 3), z95)
    assert(math.abs(est.value - local.value) < 1e-12)
    assert(math.abs(est.moe - local.moe) < 1e-12)
  }

  test("full DataFrame TWCS pipeline estimates a known KG accurately") {
    // 60% accurate KG; n=400 draws, m=2 -> MoE ~ a few percent
    val rng = new scala.util.Random(11)
    val rows = (1L to 300L).flatMap { s =>
      val size = 1 + rng.nextInt(6)
      (1 to size).map(i => (s, i - 1, s"p${i % 3}", s"o$i", if (rng.nextDouble() < 0.6) 1 else 0))
    }
    val triples = rows.toDF("subject", "line", "predicate", "object", "label")
    val truth = rows.count(_._5 == 1).toDouble / rows.size
    val sampleDf = SparkSamplers.twcsSample(triples, n = 400, m = 2, seed = 12)
    val est = SparkEstimators.clusterEstimate(sampleDf, z95)
    assert(math.abs(est.value - truth) < 0.08, s"est ${est.value} vs truth $truth")
    assert(est.moe < 0.1)
  }
}
