package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** DataFrame implementations of the paper's sampling designs.
  *
  * Input "triples" DataFrames must carry at least `subject` (long) and
  * `label` (0/1 int); extra columns (predicate, object) pass through.
  * Draw randomness is seeded so jobs are reproducible.
  */
object SparkSamplers {

  /** (subject, size, tau) per entity cluster — groupBy aggregation. */
  def clusterSummary(triples: DataFrame): DataFrame =
    repro.core.KGSummary.clusterSummaryDF(triples)

  /** SRS of exactly n triples without replacement: global random ranking via
    * row_number over rand, keep the first n.
    */
  def srsTriples(triples: DataFrame, n: Long, seed: Long): DataFrame = {
    val w = Window.orderBy(col("__srs_r"))
    triples
      .withColumn("__srs_r", rand(seed))
      .withColumn("__srs_rank", row_number().over(w))
      .where(col("__srs_rank") <= n)
      .drop("__srs_r", "__srs_rank")
  }

  /** n seeded darts, uniform on 0 until `bound`, as (draw_id, __dart). They
    * are drawn on one partition, because `rand(seed)` seeds each partition
    * apart: so the darts are the same whatever the core count.
    */
  private def darts(spark: SparkSession, n: Int, bound: Long, seed: Long): DataFrame =
    spark.range(0, n, 1, 1).select(
      col("id").as("draw_id"),
      floor(rand(seed) * bound).cast("long").as("__dart"))

  /** n with-replacement cluster draws with P(cluster i) = M_i/M, as
    * (draw_id, subject). Implemented with the "dart" trick: a uniform triple
    * (with replacement) lands in cluster i with probability M_i/M, so we
    * index all triples 0..M-1 and equi-join n random darts on the index.
    */
  def wcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame = {
    val indexed = triples
      .select(col("subject"))
      .withColumn("__idx", row_number().over(Window.orderBy(col("subject"))).cast("long") - 1)
    darts(triples.sparkSession, n, triples.count(), seed).join(indexed, col("__dart") === col("__idx"))
      .select(col("draw_id"), col("subject"))
  }

  /** n uniform (unweighted) cluster draws with replacement, as (draw_id, subject). */
  def rcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame = {
    val clusters = clusterSummary(triples)
      .withColumn("__idx", row_number().over(Window.orderBy(col("subject"))).cast("long") - 1)
    darts(triples.sparkSession, n, clusters.count(), seed).join(clusters, col("__dart") === col("__idx"))
      .select(col("draw_id"), col("subject"))
  }

  /** All triples of the drawn clusters, tagged by draw: the annotation set of
    * RCS/WCS. Duplicate first-stage draws of a cluster yield duplicate rows
    * on purpose — each draw is an independent Hansen–Hurwitz replicate.
    */
  def expandDraws(draws: DataFrame, triples: DataFrame): DataFrame =
    draws.join(triples, Seq("subject"))

  /** TWCS sample: WCS first stage, then per draw an SRS of at most m triples
    * without replacement inside the cluster (window row_number over rand,
    * partitioned by draw so repeated clusters re-sample independently).
    */
  def twcsSample(triples: DataFrame, n: Int, m: Int, seed: Long): DataFrame = {
    val draws = wcsClusterDraws(triples, n, seed)
    secondStage(draws, triples, m, seed + 1)
  }

  /** Second-stage SRS of <= m triples per (draw_id, cluster). */
  def secondStage(draws: DataFrame, triples: DataFrame, m: Int, seed: Long): DataFrame = {
    val w = Window.partitionBy(col("draw_id")).orderBy(col("__ss_r"))
    expandDraws(draws, triples)
      .withColumn("__ss_r", rand(seed))
      .withColumn("__ss_rank", row_number().over(w))
      .where(col("__ss_rank") <= m)
      .drop("__ss_r", "__ss_rank")
  }

  /** Efraimidis–Spirakis A-Res keys: key_i = u^(1/M_i) with u ~ U(0,1).
    * Input: cluster summary (subject, size, tau); adds `key`.
    * The size-m prefix by descending key is a size-weighted sample without
    * replacement — the reservoir invariant maintained on evolving KGs.
    */
  def aResKeys(summary: DataFrame, seed: Long): DataFrame =
    summary.withColumn("key", pow(rand(seed), lit(1.0) / col("size")))

  /** Merge reservoir states: keep the `capacity` largest keys of the union.
    * Both inputs must have (subject, size, tau, key).
    */
  def reservoirMerge(current: DataFrame, incoming: DataFrame, capacity: Int): DataFrame = {
    val w = Window.orderBy(col("key").desc, col("subject"))
    current.unionByName(incoming)
      .withColumn("__rank", row_number().over(w))
      .where(col("__rank") <= capacity)
      .drop("__rank")
  }
}
