package repro.core

import java.util.{Collections, WeakHashMap}

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** One entity cluster: all triples sharing a subject id.
  *
  * @param id   subject id
  * @param size M_i, number of triples in the cluster
  * @param tau  τ_i, number of *correct* triples in the cluster (ground truth)
  */
final case class Cluster(id: Long, size: Int, tau: Int) {
  require(size >= 1, s"empty cluster $id")
  require(tau >= 0 && tau <= size, s"cluster $id has tau=$tau outside [0,$size]")
  /** μ_i, cluster accuracy. */
  def accuracy: Double = tau.toDouble / size
}

/** Driver-side view of a KG for sampling designs: everything a sampler needs
  * is the list of clusters with (size, #correct). Individual triple draws
  * within a cluster are exact hypergeometric draws, so no per-triple state
  * is required (see DESIGN.md §3.4).
  */
final case class KGSummary(clusters: Array[Cluster]) {
  require(clusters.nonEmpty, "empty KG")

  /** N — number of entity clusters. */
  val numClusters: Int = clusters.length
  /** sizePrefix(i) = M_0 + … + M_i; strictly increasing, as every M_i ≥ 1. */
  private val sizePrefix = new Array[Long](numClusters)
  private val correctTriples: Long = {
    var size = 0L
    var tau  = 0L
    var i    = 0
    while (i < numClusters) {
      size += clusters(i).size; sizePrefix(i) = size; tau += clusters(i).tau; i += 1
    }
    tau
  }
  /** M — total number of triples. */
  val numTriples: Long = sizePrefix(numClusters - 1)
  /** True KG accuracy μ(G) = Σ τ_i / M. */
  val accuracy: Double = correctTriples.toDouble / numTriples
  /** Mean cluster size M/N. */
  def meanClusterSize: Double = numTriples.toDouble / numClusters

  /** Index of a cluster drawn ∝ its size M_i (with replacement), in O(log N). */
  def sizeWeightedIndex(rng: Random): Int = {
    val dart = (rng.nextDouble() * numTriples).toLong
    // first index whose prefix sum exceeds the dart
    var lo = 0
    var hi = numClusters - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sizePrefix(mid) <= dart) lo = mid + 1 else hi = mid
    }
    lo
  }
}

object KGSummary {

  /** Cluster summary as a DataFrame aggregation — the distributed half of the
    * workload. Input must have columns `subject` and `label` (0/1).
    * Output: (subject, size, tau).
    */
  def clusterSummaryDF(triples: DataFrame): DataFrame =
    triples.groupBy(col("subject"))
      .agg(count(lit(1)).as("size"), sum(col("label")).as("tau"))

  /** Summaries of persisted frames, by frame object; an entry goes with its frame. */
  private val persisted = Collections.synchronizedMap(new WeakHashMap[DataFrame, KGSummary])

  /** Collect the Spark cluster summary into the driver-side [[KGSummary]],
    * in subject order, so that it does not depend on the shuffle's order.
    * Fine for all KGs in this reproduction (≤ ~300K clusters).
    *
    * A persisted frame's rows are a fixed snapshot, so its summary is
    * collected once and kept while the frame lives and stays persisted; an
    * uncached or unpersisted frame is aggregated on every call. A frame
    * unpersisted and persisted again between two calls keeps its summary,
    * which assumes a deterministic plan, as `KGData`'s are.
    */
  def fromTriples(triples: DataFrame): KGSummary =
    if (triples.storageLevel == StorageLevel.NONE) { persisted.remove(triples); collect(triples) }
    else Option(persisted.get(triples)).getOrElse { val kg = collect(triples); persisted.put(triples, kg); kg }

  private def collect(triples: DataFrame): KGSummary = {
    val rows = clusterSummaryDF(triples).collect()
    KGSummary(rows.map(r => Cluster(
      r.getAs[Long]("subject"),
      r.getAs[Long]("size").toInt,
      r.getAs[Long]("tau").toInt)).sortBy(_.id))
  }
}
