package repro.spark

import scala.util.Random

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.core.{Cluster, KGSummary, LocalSamplers}

/** DataFrame implementations of the paper's sampling designs.
  *
  * Input "triples" DataFrames carry `subject` (long), `line` (int) and
  * `label` (0/1 int), where each subject's `line` runs 0 until its cluster
  * size, as `KGData` generates them; extra columns (predicate, object) pass
  * through.
  *
  * The WCS/RCS/TWCS first stage is drawn on the driver by `LocalSamplers`,
  * the code the Monte-Carlo path runs, over `KGSummary.fromTriples`, and the
  * TWCS second-stage lines by a seeded driver `Random`; Spark only fetches
  * the drawn triples. SRS triples and A-Res keys are a seeded `xxhash64` of
  * the triple's (subject, line), or of the subject for a cluster, so each
  * sample is a function of (seed, rows) alone, whatever the partitioning or
  * core count.
  *
  * A persisted frame's cluster summary is collected once, not per call, and
  * seeds enter generated code as references: codegen inlines primitive
  * literals into the Java source, so each new seed would compile new classes.
  */
object SparkSamplers {

  /** (subject, size, tau) per entity cluster — groupBy aggregation. */
  def clusterSummary(triples: DataFrame): DataFrame =
    KGSummary.clusterSummaryDF(triples)

  /** xxhash64(seed, cols…). The seed is hashed as a one-element long array,
    * which XxHash64 hashes exactly as the long itself, but which generated
    * code holds in its `references[]`: one compiled class serves every seed.
    */
  private[spark] def seededHash(seed: Long, cols: String*): Column =
    xxhash64(typedLit(Array(seed)) +: cols.map(col): _*)

  private def requireLine(triples: DataFrame): Unit =
    require(triples.columns.contains("line"), "triples need a `line` column: (subject, line) names one triple")

  /** SRS of exactly n <= Int.MaxValue triples without replacement: the n
    * smallest seeded hashes of (subject, line).
    */
  def srsTriples(triples: DataFrame, n: Long, seed: Long): DataFrame = {
    require(n <= Int.MaxValue, s"srsTriples draws at most Int.MaxValue triples, not $n")
    requireLine(triples)
    triples.orderBy(seededHash(seed, "subject", "line")).limit(n.toInt)
  }

  /** n first-stage draws from `new Random(seed)` over the cluster summary. */
  private def clusterDraws(triples: DataFrame, n: Int, seed: Long)
                          (draw: (KGSummary, Random) => LocalSamplers.ClusterDraw): Seq[Cluster] = {
    val kg  = KGSummary.fromTriples(triples)
    val rng = new Random(seed)
    Seq.fill(n)(draw(kg, rng).cluster)
  }

  /** The drawn clusters as a local (draw_id, subject) DataFrame, in draw order. */
  private def asDraws(triples: DataFrame, clusters: Seq[Cluster]): DataFrame = {
    import triples.sparkSession.implicits._
    clusters.zipWithIndex.map { case (c, i) => (i.toLong, c.id) }.toDF("draw_id", "subject")
  }

  /** n with-replacement cluster draws with P(cluster i) = M_i/M, as (draw_id, subject). */
  def wcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    asDraws(triples, clusterDraws(triples, n, seed)(LocalSamplers.wcsDraw))

  /** n uniform (unweighted) cluster draws with replacement, as (draw_id, subject). */
  def rcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame =
    asDraws(triples, clusterDraws(triples, n, seed)(LocalSamplers.rcsDraw))

  /** All triples of the drawn clusters, tagged by draw: the annotation set of
    * RCS/WCS. Duplicate first-stage draws of a cluster yield duplicate rows
    * on purpose — each draw is an independent Hansen–Hurwitz replicate. The
    * draws are few, so they are broadcast to the triples' partitions.
    */
  def expandDraws(draws: DataFrame, triples: DataFrame): DataFrame =
    broadcast(draws).join(triples, Seq("subject"))

  /** TWCS sample: n WCS draws from `new Random(seed)`, then per draw
    * min(M_i, m) distinct lines, uniform over 0 until M_i, from
    * `new Random(seed + 1)`; as the drawn triples tagged by `draw_id`.
    * Each subject's `line` must run 0 until its cluster size.
    */
  def twcsSample(triples: DataFrame, n: Int, m: Int, seed: Long): DataFrame = {
    requireLine(triples)
    val clusters = clusterDraws(triples, n, seed)(LocalSamplers.wcsDraw)
    val rng      = new Random(seed + 1)
    val draws = clusters.zipWithIndex.map { case (c, i) =>
      (i.toLong, c.id, rng.shuffle((0 until c.size).toVector).take(m))
    }
    import triples.sparkSession.implicits._
    // join on the subject, then keep the drawn lines: a broadcast keyed by one
    // long is a small LongHashedRelation, one keyed by (subject, line) a
    // BytesToBytesMap holding a whole memory page per call
    expandDraws(draws.toDF("draw_id", "subject", "lines"), triples)
      .where(array_contains(col("lines"), col("line"))).drop("lines")
  }

  /** Efraimidis–Spirakis A-Res keys: key_i = u^(1/M_i) with u ~ U(0,1], u the
    * top 53 bits of a seeded hash of the subject. Input: cluster summary
    * (subject, size, tau), one row per subject; adds `key`.
    * The size-m prefix by descending key is a size-weighted sample without
    * replacement — the reservoir invariant maintained on evolving KGs.
    */
  def aResKeys(summary: DataFrame, seed: Long): DataFrame = {
    val u = (shiftrightunsigned(seededHash(seed, "subject"), 11) + 1).cast("double") / math.pow(2, 53)
    summary.withColumn("key", pow(u, lit(1.0) / col("size")))
  }

  /** Merge two (subject, size, tau, key) reservoir states: the `capacity` largest keys. */
  def reservoirMerge(current: DataFrame, incoming: DataFrame, capacity: Int): DataFrame =
    current.unionByName(incoming).orderBy(col("key").desc, col("subject")).limit(capacity)
}
