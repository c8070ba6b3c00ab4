package repro

import org.apache.spark.sql.functions.col

import repro.core.KGSummary
import repro.kg.KGData

/** Self-check of the DuckDB oracle on KG data: it accepts the cluster summary
  * every design starts from, and it rejects a query that disagrees with it.
  */
class OracleSpec extends SparkSpec {

  private lazy val triples = KGData.nellLaw(KGData.NellSeed).toDF(spark).select(col("subject"), col("label")).cache()

  private val summarySql =
    "SELECT CAST(subject AS BIGINT) AS subject, COUNT(*) AS size, " +
      "SUM(CAST(label AS BIGINT)) AS tau FROM t GROUP BY subject"

  test("clusterSummaryDF matches DuckDB's GROUP BY subject on NELL-like triples") {
    Oracle.assertEquivalent(KGSummary.clusterSummaryDF(triples), summarySql, "t" -> triples)
  }

  test("assertEquivalent rejects a query with different results") {
    val wrong = summarySql.replace("COUNT(*) AS size", "COUNT(*) + 1 AS size")
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(KGSummary.clusterSummaryDF(triples), wrong, "t" -> triples))
    assert(e.getMessage.contains("result mismatch"))
  }
}
