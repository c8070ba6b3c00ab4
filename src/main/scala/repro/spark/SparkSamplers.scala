package repro.spark

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.core.{Cluster, KGSummary, LocalSamplers}

/** DataFrame implementations of the paper's sampling designs.
  *
  * Input "triples" DataFrames carry `subject` (long), `line` (int) and
  * `label` (0/1 int), where each subject's `line` runs 0 until its cluster
  * size, as `KGData` generates them; extra columns (predicate, object) pass
  * through.
  *
  * The RCS/TWCS first stage is drawn on the driver by `LocalSamplers`,
  * the code the Monte-Carlo path runs, over `KGSummary.fromTriples`, and the
  * TWCS second-stage lines by a seeded driver `Random`; Spark only fetches
  * the drawn triples. SRS triples and A-Res keys are a seeded `xxhash64` of
  * the triple's (subject, line), or of the subject for a cluster, so each
  * sample is a function of (seed, rows) alone, whatever the partitioning or
  * core count.
  *
  * A persisted frame's cluster summary is collected once, not per call, and
  * seeds and draws enter generated code as references: codegen inlines
  * primitive literals into the Java source, so each new seed would compile
  * new classes, while an array or map literal is held in `references[]`.
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
    xxhash64(lit(Array(seed)) +: cols.map(col): _*)

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

  private val DrawSchema = StructType(Seq(
    StructField("draw_id", LongType, nullable = false), StructField("subject", LongType, nullable = false)))

  /** n uniform (unweighted) cluster draws with replacement, as a local
    * (draw_id, subject) DataFrame in draw order.
    */
  def rcsClusterDraws(triples: DataFrame, n: Int, seed: Long): DataFrame = {
    val rows = clusterDraws(triples, n, seed)(LocalSamplers.rcsDraw).zipWithIndex
      .map { case (c, i) => Row(i.toLong, c.id) }
    triples.sparkSession.createDataFrame(rows.asJava, DrawSchema)
  }

  /** All triples of the drawn clusters, tagged by draw: the annotation set of
    * RCS, as (subject, draw_id, the triples' other columns). Duplicate
    * first-stage draws of a cluster yield duplicate rows on purpose — each
    * draw is an independent Hansen–Hurwitz replicate.
    *
    * `draws` is collected to the driver, which starts no job for a local
    * frame such as `rcsClusterDraws`'s. Spark then fetches the drawn subjects
    * with `isInCollection` and tags each row with its draws from a literal
    * map, subject → draw ids. Below `spark.sql.optimizer.inSetConversionThreshold`
    * (10) distinct subjects the filter stays an `In` whose literals are inlined
    * into generated code, so such a call may compile a class; above it the
    * filter is an `InSet`, held as a reference like the map.
    */
  def expandDraws(draws: DataFrame, triples: DataFrame): DataFrame =
    expand(triples, draws.select("draw_id", "subject").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq)

  /** The rows of `triples` whose subject is drawn, one per (draw_id, subject) pair. */
  private def expand(triples: DataFrame, draws: Seq[(Long, Long)]): DataFrame = {
    val bySubject = draws.groupBy(_._2)
    val ids = bySubject.keys.toArray
    val drawIds = ids.map(bySubject(_).map(_._1).toArray)
    val others = triples.columns.filter(_ != "subject").map(col)
    val drawId = explode(element_at(map_from_arrays(lit(ids), lit(drawIds)), col("subject"))).as("draw_id")
    triples.where(col("subject").isInCollection(ids)).select(col("subject") +: drawId +: others.toSeq: _*)
  }

  /** TWCS sample: n WCS draws from `new Random(seed)`, then per draw
    * min(M_i, m) distinct lines, uniform over 0 until M_i, from
    * `new Random(seed + 1)`; as the drawn triples tagged by `draw_id`, in
    * `expandDraws`'s columns. Each subject's `line` must run 0 until its
    * cluster size. Each row is kept when its line is among its draw's lines,
    * looked up by `draw_id` in a literal array.
    */
  def twcsSample(triples: DataFrame, n: Int, m: Int, seed: Long): DataFrame = {
    requireLine(triples)
    val clusters = clusterDraws(triples, n, seed)(LocalSamplers.wcsDraw)
    val rng      = new Random(seed + 1)
    val lines    = clusters.map(c => rng.shuffle((0 until c.size).toVector).take(m).toArray).toArray
    expand(triples, clusters.zipWithIndex.map { case (c, i) => (i.toLong, c.id) })
      .where(array_contains(element_at(lit(lines), col("draw_id").cast("int") + 1), col("line")))
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
