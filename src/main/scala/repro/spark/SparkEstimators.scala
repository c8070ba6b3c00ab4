package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.{Estimate, Estimators}

/** Accuracy estimators over sampled DataFrames (the "Estimation" component
  * of Fig 2, distributed): Spark aggregates per draw (oracle-checked against
  * DuckDB in the test suite), and the driver applies the `Estimators` formula
  * the Monte-Carlo path uses to those few rows.
  */
object SparkEstimators {

  /** Per-draw cluster sample means: (draw_id, cmean, annotated). */
  def drawMeans(sample: DataFrame): DataFrame =
    sample.groupBy(col("draw_id"))
      .agg(avg(col("label").cast("double")).as("cmean"),
           count(lit(1)).as("annotated"))

  /** SRS estimator (Eq 5) over a sampled-triples DataFrame. */
  def srsEstimate(sample: DataFrame, z: Double): Estimate = {
    val row = sample.agg(
      sum(col("label").cast("long")).as("correct"),
      count(lit(1)).as("n")).head()
    Estimators.srs(row.getAs[Long]("correct"), row.getAs[Long]("n"), z)
  }

  /** Mean-of-draws estimator (Eqs 8/9) over a (draw_id, label) sample:
    * `Estimators.meanOfDraws` of the per-draw means. Covers WCS (full
    * clusters) and TWCS (second-stage samples).
    */
  def clusterEstimate(sample: DataFrame, z: Double): Estimate =
    Estimators.meanOfDraws(perDraw(drawMeans(sample), "cmean"), z)

  /** RCS estimator (Eq 7): v_k = (N/M)·τ_{I_k} over fully-annotated draws. */
  def rcsEstimate(sample: DataFrame, numClusters: Long, numTriples: Long, z: Double): Estimate = {
    val hits = perDraw(sample.groupBy(col("draw_id")).agg(sum(col("label").cast("double")).as("hits")), "hits")
    Estimators.meanOfDraws(hits.map(_ * (numClusters.toDouble / numTriples)), z)
  }

  /** One (draw_id, `value`) row per draw, collected and put in draw order, so
    * the estimate does not depend on the order partitions return their rows.
    */
  private def perDraw(draws: DataFrame, value: String): Seq[Double] =
    draws.select(col("draw_id"), col(value)).collect()
      .sortBy(_.getLong(0)).map(_.getDouble(1)).toSeq
}
