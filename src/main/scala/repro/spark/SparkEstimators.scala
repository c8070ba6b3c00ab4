package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.Estimate

/** Accuracy estimators as DataFrame aggregations (the "Estimation" component
  * of Fig 2, distributed). Each mirrors a formula in `repro.core.Estimators`
  * and is oracle-checked against DuckDB in the test suite.
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
    repro.core.Estimators.srs(row.getAs[Long]("correct"), row.getAs[Long]("n"), z)
  }

  /** Mean-of-draws estimator (Eqs 8/9) over a (draw_id, label) sample:
    * μ̂ = avg of per-draw means, MoE from their sample variance.
    * Covers WCS (full clusters) and TWCS (second-stage samples).
    */
  def clusterEstimate(sample: DataFrame, z: Double): Estimate =
    meanOfDraws(drawMeans(sample).select(col("cmean").as("v")), z)

  /** RCS estimator (Eq 7): v_k = (N/M)·τ_{I_k} over fully-annotated draws. */
  def rcsEstimate(sample: DataFrame, numClusters: Long, numTriples: Long, z: Double): Estimate =
    meanOfDraws(sample.groupBy(col("draw_id"))
      .agg((sum(col("label").cast("long")) * (numClusters.toDouble / numTriples)).as("v")), z)

  /** μ̂ = avg of the per-draw values `v`, MoE = z·√(s²/n); infinite below 2 draws. */
  private def meanOfDraws(values: DataFrame, z: Double): Estimate = {
    val row = values.agg(avg(col("v")).as("mu"), var_samp(col("v")).as("s2"),
                         count(lit(1)).as("n")).head()
    val n = row.getAs[Long]("n")
    val moe =
      if (n < 2 || row.isNullAt(row.fieldIndex("s2"))) Double.PositiveInfinity
      else z * math.sqrt(row.getAs[Double]("s2") / n)
    Estimate(row.getAs[Double]("mu"), moe)
  }
}
