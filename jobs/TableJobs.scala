package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments

/** Shared SparkSession setup for the table-reproduction entrypoints and the test suite. */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def report(title: String, lines: Seq[String]): Unit = {
    println(s"== $title ==")
    lines.foreach(println)
  }
}

/** Table 3 — data characteristics of the synthetic KGs. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table3")
    try JobSession.report("Table 3", Experiments.table3(spark)._2)
    finally spark.stop()
  }
}

/** Table 4 — manual evaluation cost on MOVIE: SRS vs TWCS(m=10). */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table4")
    try JobSession.report("Table 4", Experiments.table4(spark)._2)
    finally spark.stop()
  }
}

/** Table 5 — SRS/RCS/WCS/TWCS on MOVIE, NELL, YAGO. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table5")
    try JobSession.report("Table 5", Experiments.table5(spark)._2)
    finally spark.stop()
  }
}

/** Table 6 — TWCS vs the KGEval baseline on NELL and YAGO. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table6")
    try JobSession.report("Table 6", Experiments.table6(spark)._2)
    finally spark.stop()
  }
}

/** Table 7 — TWCS with size/oracle stratification. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table7")
    try JobSession.report("Table 7", Experiments.table7(spark)._2)
    finally spark.stop()
  }
}

/** Evolving-KG evaluation (Figs 8 and 9 as tables). */
object EvolvingJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("evolving")
    try {
      JobSession.report("Evolving KG — single update batch", Experiments.evolvingSingleBatch(spark)._2)
      JobSession.report("Evolving KG — sequence of updates", Experiments.evolvingSequence(spark)._3)
    } finally spark.stop()
  }
}
