package repro.spark

import scala.util.Random

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.{KGSummary, LocalSamplers}

/** DataFrame implementations of the paper's sampling designs.
  *
  * Input "triples" DataFrames carry `subject` (long), `line` (int) and
  * `label` (0/1 int), with (subject, line) unique, as `KGData` generates
  * them; extra columns (predicate, object) pass through.
  *
  * The WCS/RCS first stage is drawn on the driver by `LocalSamplers`, the
  * code the Monte-Carlo path runs, over `KGSummary.fromTriples`; Spark only
  * fetches the drawn clusters' triples. Every other random choice is keyed by
  * a seeded `xxhash64` of the triple's (subject, line), or of the subject for
  * a cluster, so each sample is a function of (seed, rows) alone, whatever
  * the partitioning or core count.
  */
object SparkSamplers {

  /** (subject, size, tau) per entity cluster — groupBy aggregation. */
  def clusterSummary(triples: DataFrame): DataFrame =
    KGSummary.clusterSummaryDF(triples)

  /** A seeded hash of the columns `ids` and of (subject, line), which names one triple. */
  private def tripleKey(triples: DataFrame, seed: Long, ids: String*) = {
    require(triples.columns.contains("line"), "triples need a `line` column: (subject, line) names one triple")
    xxhash64(lit(seed) +: (ids :+ "subject" :+ "line").map(col): _*)
  }

  /** SRS of exactly n <= Int.MaxValue triples without replacement: the n smallest triple keys. */
  def srsTriples(triples: DataFrame, n: Long, seed: Long): DataFrame = {
    require(n <= Int.MaxValue, s"srsTriples draws at most Int.MaxValue triples, not $n")
    triples.orderBy(tripleKey(triples, seed)).limit(n.toInt)
  }

  /** n first-stage draws from `new Random(seed)` over the cluster summary,
    * as a local (draw_id, subject) DataFrame.
    */
  private def clusterDraws(triples: DataFrame, n: Int, seed: Long)
                          (draw: (KGSummary, Random) => LocalSamplers.ClusterDraw): DataFrame = {
    val kg  = KGSummary.fromTriples(triples)
    val rng = new Random(seed)
    import triples.sparkSession.implicits._
    Seq.tabulate(n)(i => (i.toLong, draw(kg, rng).cluster.id)).toDF("draw_id", "subject")
  }

  /** n with-replacement cluster draws with P(cluster i) = M_i/M, as (draw_id, subject). */
  def wcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    clusterDraws(triples, n, seed)(LocalSamplers.wcsDraw)

  /** n uniform (unweighted) cluster draws with replacement, as (draw_id, subject). */
  def rcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    clusterDraws(triples, n, seed)(LocalSamplers.rcsDraw)

  /** All triples of the drawn clusters, tagged by draw: the annotation set of
    * RCS/WCS. Duplicate first-stage draws of a cluster yield duplicate rows
    * on purpose — each draw is an independent Hansen–Hurwitz replicate. The
    * draws are few, so they are broadcast to the triples' partitions.
    */
  def expandDraws(draws: DataFrame, triples: DataFrame): DataFrame =
    broadcast(draws).join(triples, Seq("subject"))

  /** TWCS sample: WCS first stage, then per draw an SRS of at most m of the cluster's triples. */
  def twcsSample(triples: DataFrame, n: Int, m: Int, seed: Long): DataFrame =
    secondStage(wcsClusterDraws(triples, n, seed), triples, m, seed + 1)

  /** Second-stage SRS of <= m triples per (draw_id, cluster): the m smallest
    * triple keys of each draw. The key covers `draw_id`, so repeated draws of
    * a cluster re-sample independently.
    */
  def secondStage(draws: DataFrame, triples: DataFrame, m: Int, seed: Long): DataFrame = {
    val w = Window.partitionBy(col("draw_id")).orderBy(tripleKey(triples, seed, "draw_id"))
    expandDraws(draws, triples)
      .withColumn("__ss_rank", row_number().over(w))
      .where(col("__ss_rank") <= m)
      .drop("__ss_rank")
  }

  /** Efraimidis–Spirakis A-Res keys: key_i = u^(1/M_i) with u ~ U(0,1], u the
    * top 53 bits of a seeded hash of the subject. Input: cluster summary
    * (subject, size, tau), one row per subject; adds `key`.
    * The size-m prefix by descending key is a size-weighted sample without
    * replacement — the reservoir invariant maintained on evolving KGs.
    */
  def aResKeys(summary: DataFrame, seed: Long): DataFrame = {
    val u = (shiftrightunsigned(xxhash64(lit(seed), col("subject")), 11) + 1).cast("double") / math.pow(2, 53)
    summary.withColumn("key", pow(u, lit(1.0) / col("size")))
  }

  /** Merge two (subject, size, tau, key) reservoir states: the `capacity` largest keys. */
  def reservoirMerge(current: DataFrame, incoming: DataFrame, capacity: Int): DataFrame =
    current.unionByName(incoming).orderBy(col("key").desc, col("subject")).limit(capacity)
}
