package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.KGSummary
import repro.kg.KGData._
import repro.kg.LabelModels.BMM
import repro.kgeval.KGEval

import scala.collection.mutable

/** Per-JVM cache of the synthetic KGs' cluster summaries, which every
  * sampling design consumes (DESIGN.md §3.4). Each is built on the driver
  * straight from the KG's law in [[repro.kg.KGData]], with no Spark job, and equals
  * the `groupBy(subject)` summary of that KG's DataFrame. The `spark`
  * parameters are unused; they stay because the benches and `kgbench` call
  * these with a session. Cached because several tables share the same KG and
  * benches run in a single JVM.
  */
object ExpData {
  private val summaries = mutable.Map.empty[String, KGSummary]

  private def summary(key: String)(mk: => KGSummary): KGSummary =
    synchronized(summaries.getOrElseUpdate(key, mk))

  def nell(spark: SparkSession): KGSummary = summary("nell")(nellLaw(NellSeed).summary)

  def yago(spark: SparkSession): KGSummary = summary("yago")(yagoLaw(YagoSeed).summary)

  def movie(spark: SparkSession, scale: Double = 1.0): KGSummary =
    summary(s"movie-$scale")(movieLaw(scale, MovieModel, MovieSeed).summary)

  def movieSyn(spark: SparkSession, c: Double = 0.01, sigma: Double = 0.1,
               scale: Double = 1.0): KGSummary =
    summary(s"moviesyn-$c-$sigma-$scale")(movieLaw(scale, BMM(c, sigma), MovieSynSeed).summary)

  /** Full triples of the small KGs, in subject order, for the KGEval baseline
    * (which needs predicates/objects to build its coupling graph).
    */
  def kgEvalTriples(spark: SparkSession, kg: String): IndexedSeq[KGEval.Triple] = {
    val law = kg match {
      case "nell" => nellLaw(NellSeed)
      case "yago" => yagoLaw(YagoSeed)
      case other  => throw new IllegalArgumentException(s"unknown small KG $other")
    }
    (1L to law.entities).flatMap(law.triples).zipWithIndex.map {
      case ((subject, _, predicate, obj, label), i) => KGEval.Triple(i, subject, predicate, obj, label)
    }
  }
}
