package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.{Estimate, Estimators}

/** Accuracy estimators over sampled DataFrames (the "Estimation" component
  * of Fig 2, distributed): a sample is the annotation set, a few hundred
  * rows, so Spark collects its labels and the driver applies the
  * `Estimators` formulas the Monte-Carlo path uses.
  */
object SparkEstimators {

  /** SRS estimator (Eq 5) over a sampled-triples DataFrame. */
  def srsEstimate(sample: DataFrame, z: Double): Estimate = {
    val labels = sample.select(col("label").cast("int")).collect().map(_.getInt(0))
    Estimators.srs(labels.map(_.toLong).sum, labels.length, z)
  }

  /** Mean-of-draws estimator (Eqs 8/9) over a (draw_id, label) sample:
    * `Estimators.meanOfDraws` of the per-draw means. Covers WCS (full
    * clusters) and TWCS (second-stage samples).
    */
  def clusterEstimate(sample: DataFrame, z: Double): Estimate =
    Estimators.meanOfDraws(perDraw(sample).map { case (hits, annotated) => hits.toDouble / annotated }, z)

  /** RCS estimator (Eq 7): v_k = (N/M)·τ_{I_k} over fully-annotated draws. */
  def rcsEstimate(sample: DataFrame, numClusters: Long, numTriples: Long, z: Double): Estimate =
    Estimators.meanOfDraws(perDraw(sample).map(_._1 * (numClusters.toDouble / numTriples)), z)

  /** (hits, annotated) per draw, in `draw_id` order, so the estimate does not
    * depend on the order partitions return their rows.
    */
  private def perDraw(sample: DataFrame): Seq[(Int, Int)] =
    sample.select(col("draw_id").cast("long"), col("label").cast("int")).collect()
      .groupMapReduce(_.getLong(0))(r => (r.getInt(1), 1)) { case ((h, a), (h2, a2)) => (h + h2, a + a2) }
      .toSeq.sortBy(_._1).map(_._2)
}
