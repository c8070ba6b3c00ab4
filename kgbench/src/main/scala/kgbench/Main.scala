package kgbench

import org.apache.spark.sql.SparkSession

/** Entry point: runs one workload and prints its result as the last line of
  * standard output. Started by run.py, which pins the JVM and Spark settings.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val args   = Args.parse(argv)
    val tracer = new Tracer(args.trace)
    val workload = args.workload match {
      case "spark-movie" => new SparkMovie(args, tracer)
      case "mc-tables"   => new McTables(args, tracer)
      case "evolve-seq"  => new EvolveSeq(args, tracer)
      case other         => throw new IllegalArgumentException(s"unknown workload $other")
    }
    val outcome = Bench.run(args, tracer, workload)
    SparkSession.getActiveSession.foreach(_.stop())
    outcome.notes.foreach(n => println(s"# $n"))
    println(Bench.json(outcome))
  }
}
