package repro.jobs

import org.apache.spark.sql.SparkSession

/** The one SparkSession setup, shared by the test suites and the `kgbench`
  * workloads.
  */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
}
