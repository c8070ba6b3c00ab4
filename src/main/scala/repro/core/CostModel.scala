package repro.core

import scala.collection.mutable

/** Annotation cost model, Eq (4): Cost(G') = |E'|·c1 + |G'|·c2.
  *
  * c1 = entity-identification cost, c2 = relationship-validation cost; the
  * paper fits c1 = 45 s, c2 = 25 s from measured human annotation tasks
  * (§7.1.3). E' is the set of *distinct* subject ids in the sample and G'
  * the set of distinct triples, so repeated draws of the same cluster or
  * triple are never double-charged.
  */
object CostModel {
  /** Fitted constants from §7.1.3, in seconds. */
  val c1 = 45.0
  val c2 = 25.0

  /** Cost in seconds for a sample with `entities` distinct subjects and
    * `triples` distinct triples. */
  def seconds(entities: Long, triples: Long): Double = entities * c1 + triples * c2
}

/** Mutable accumulator for the annotation cost of an iterative evaluation run.
  *
  * Tracks distinct annotated entities and, per entity, the number of distinct
  * annotated triples capped at the cluster size (one cannot annotate more
  * distinct triples than the cluster holds — relevant when with-replacement
  * cluster draws revisit a cluster). Costs follow [[CostModel]].
  */
final class CostTracker {
  private val triplesPerEntity = mutable.Map.empty[Long, Int]
  private var triplesTotal     = 0L

  /** Record that `count` triples of cluster `id` (size `clusterSize`) were annotated. */
  def record(id: Long, clusterSize: Int, count: Int): Unit = {
    require(count >= 0 && count <= clusterSize,
      s"annotated $count of cluster $id with size $clusterSize")
    val prev = triplesPerEntity.getOrElse(id, 0)
    val now  = math.min(clusterSize, prev + count)
    triplesPerEntity(id) = now
    triplesTotal += now - prev
  }

  def entities: Int  = triplesPerEntity.size
  def triples: Long  = triplesTotal
  def seconds: Double = CostModel.seconds(entities.toLong, triples)
  def hours: Double   = seconds / 3600.0
}
