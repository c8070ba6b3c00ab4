package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.KGSummary
import repro.kg.KGData._
import repro.kgeval.KGEval

/** The cluster summaries of the standard synthetic KGs, which every sampling
  * design consumes (DESIGN.md §3.4). Each is built once per JVM, on the
  * driver, straight from the KG's law in [[repro.kg.KGData]], with no Spark
  * job, and equals the `groupBy(subject)` summary of that KG's DataFrame.
  * Several tables share a KG and the benches run in one JVM.
  */
object ExpData {
  lazy val Nell: KGSummary = nellLaw(NellSeed).summary

  lazy val Yago: KGSummary = yagoLaw(YagoSeed).summary

  lazy val Movie: KGSummary = movieLaw(1.0, MovieModel, MovieSeed).summary

  lazy val MovieSyn: KGSummary = movieLaw(1.0, MovieSynModel, MovieSynSeed).summary

  /** MOVIE at half scale: the evolving experiments' base KG (§7.3). */
  lazy val MovieHalf: KGSummary = movieLaw(0.5, MovieModel, MovieSeed).summary

  /** The four loaders below exist only for `kgbench`, which calls them with a
    * session; they go with the benchmark change of ROADMAP item 7.
    */
  def nell(spark: SparkSession): KGSummary = Nell

  def yago(spark: SparkSession): KGSummary = Yago

  def movie(spark: SparkSession): KGSummary = Movie

  def movieSyn(spark: SparkSession): KGSummary = MovieSyn

  /** Full triples of `law`'s KG, in subject order, for the KGEval baseline
    * (which needs predicates/objects to build its coupling graph).
    */
  private[repro] def kgEvalTriples(law: Law): IndexedSeq[KGEval.Triple] =
    (1L to law.entities).flatMap(law.triples).zipWithIndex.map {
      case ((subject, _, predicate, obj, label), i) => KGEval.Triple(i, subject, predicate, obj, label)
    }
}
