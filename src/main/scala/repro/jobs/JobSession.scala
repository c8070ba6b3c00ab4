package repro.jobs

import org.apache.spark.sql.SparkSession

/** The one SparkSession setup, shared by the test suites and the `kgbench`
  * workloads. Automatic broadcast joins are off, so a query that needs a
  * broadcast asks for it with a hint.
  */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
