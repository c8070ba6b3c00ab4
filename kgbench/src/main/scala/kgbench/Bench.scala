package kgbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.hashing.MurmurHash3

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      warmup: Int, traceFile: Option[File])

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def req(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(req("workload"), req("seed").toLong, req("seconds").toDouble,
      req("trace") == "1", kv.getOrElse("warmup", "0").toInt, kv.get("trace-file").map(new File(_)))
  }
}

/** Independent random streams derived from the run seed, one per purpose
  * (cell, call, evaluator, op), so that a change in how one consumer draws
  * cannot shift the draws of another.
  */
object Seeds {
  def of(seed: Long, tags: Any*): Long =
    tags.foldLeft(seed * 0x9E3779B97F4A7C15L) { (h, t) =>
      val x = t match {
        case s: String => MurmurHash3.stringHash(s).toLong
        case n: Int    => n.toLong
        case n: Long   => n
        case other     => throw new IllegalArgumentException(s"seed tag $other")
      }
      mix(h ^ (x * 0xBF58476D1CE4E5B9L))
    }

  def rng(seed: Long, tags: Any*): Random = new Random(of(seed, tags: _*))

  private def mix(z0: Long): Long = { // SplitMix64 finaliser
    var z = z0
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}

/** A closed-loop workload: one driver thread issues one composite op at a
  * time. Ops with index >= [[Workload.WarmupBase]] are warm-up ops.
  */
trait Workload {
  /** Spark session, KG generation, summaries, strata. */
  def setup(): Unit
  /** Work between ops that is not op latency (per-sequence initialisation). */
  def beforeOp(i: Long): Unit = ()
  /** The timed op. */
  def op(i: Long): Unit
  /** Output checks of the op just run, outside its latency and outside the
    * measured time. True if all pass. Ops below [[qualityOps]] also feed the
    * quality metrics, here or in other untimed work.
    */
  def check(i: Long): Boolean
  /** The quality metrics cover ops 0 until this, so they repeat for a seed.
    * The measured phase runs at least these ops.
    */
  def qualityOps: Int
  /** Whether the measured phase may end after `n` ops. */
  def mayEndAfter(n: Int): Boolean = true
  def annotCostH: Double
  def ciCoverage: Double
  /** Per-layer metrics of this workload; the runner adds the common ones. */
  def layerMetrics(): Map[String, Double]
}

object Workload {
  val WarmupBase: Long = 1L << 40
}

object Bench {
  final case class Metric(name: String, value: Double, unit: String)

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Ops that must lie beyond the tail percentile. */
  val TailBeyond = 10

  /** The measured phase lasts at least this many ops, so that the tail has
    * [[TailBeyond]] ops beyond it and lies above the median.
    */
  val MinOps: Int = 2 * TailBeyond + 2

  /** The highest percentile that has [[TailBeyond]] ops beyond it, as
    * (percentile, value): the (n - 10)-th smallest of n latencies.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val rank = math.max(1, s.size - TailBeyond)
    (100.0 * rank / s.size, s(rank - 1))
  }

  private def timedS(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  private def gcTotals(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum)
  }

  private def threadAllocated(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
      .getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Heap in use just after a full GC, as each heap pool recorded it at the
    * end of that GC, before other threads allocate again.
    */
  private def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
      .map(p => Option(p.getCollectionUsage).fold(0L)(_.getUsed)).sum / 1e6
  }

  final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric],
                           notes: Seq[String])

  def run(args: Args, tracer: Tracer, w: Workload): Outcome = {
    val notes = ArrayBuffer.empty[String]
    var allChecksOk = true
    // time and allocation in output checks, which are not part of the measured phase
    var checkNs, checkBytes = 0L

    def attempt(i: Long): (Long, Boolean) = {
      tracer.op = i
      w.beforeOp(i)
      val t0 = System.nanoTime()
      val ran =
        try { tracer.span("bench.op")(w.op(i)); true }
        catch { case e: Exception => notes += s"op $i failed: $e"; false }
      val t1 = System.nanoTime()
      val bytes0 = threadAllocated()
      val ok = ran && (try w.check(i) catch { case e: Exception => notes += s"op $i check: $e"; false })
      checkBytes += threadAllocated() - bytes0
      checkNs += System.nanoTime() - t1
      if (!ok) allChecksOk = false
      (t1 - t0, ok)
    }

    tracer.span("setup")(w.setup())
    val setupS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    val warmupS = timedS((0 until args.warmup).foreach(k => attempt(Workload.WarmupBase + k)))

    val (gcCount0, gcMs0) = gcTotals()
    val alloc0 = threadAllocated()
    val latencies = ArrayBuffer.empty[Double]
    var failed = 0
    val t0 = System.nanoTime()
    val deadline = t0 + (args.seconds * 1e9).toLong
    checkNs = 0L
    checkBytes = 0L
    val minOps = math.max(MinOps, w.qualityOps)
    while (System.nanoTime() < deadline || latencies.size < minOps || !w.mayEndAfter(latencies.size)) {
      val (ns, ok) = attempt(latencies.size.toLong)
      latencies += ns / 1e6
      if (!ok) failed += 1
    }
    val checkS = checkNs / 1e9
    val wallS = (System.nanoTime() - t0) / 1e9 - checkS
    val n = latencies.size
    val alloc = threadAllocated() - alloc0 - checkBytes
    val (gcCount1, gcMs1) = gcTotals()
    val heapMb = liveHeapMb()

    val p50 = median(latencies.toSeq)
    val (tailP, tailMs) = tail(latencies.toSeq)
    notes += f"ops=$n wall=${wallS}%.3fs p50=${p50}%.3fms tail=p$tailP%.2f:${tailMs}%.3fms " +
      f"(${TailBeyond} ops beyond) quality over ${w.qualityOps} ops"
    notes += f"phases: setup=${setupS}%.1fs warmup=${warmupS}%.1fs " +
      f"measured=${wallS}%.1fs checks=${checkS}%.1fs " +
      f"end=${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%.1fs"
    val selfCheck = p50 <= tailMs
    if (!selfCheck) notes += s"self-check failed: op_p50_ms $p50 > op_tail_ms $tailMs"

    val metrics =
      if (!tracer.enabled) Seq(
        Metric("setup_s", setupS, "s"),
        Metric("heap_mb", heapMb, "MB"),
        Metric("ops_per_s", n / wallS, "op/s"),
        Metric("op_p50_ms", p50, "ms"),
        Metric("op_tail_ms", tailMs, "ms"),
        Metric("ok_frac", (n - failed).toDouble / n, "ratio"),
        Metric("annot_cost_h", w.annotCostH, "h"),
        Metric("ci_coverage", w.ciCoverage, "ratio"))
      else {
        val opSelf = tracer.selfMsByLayer(s => s.measured && s.op < n)
        val setupSelf = tracer.selfMsByLayer(_.op == -1L)
        val common = Map(
          "jvm.gc_ms_per_op"    -> (gcMs1 - gcMs0).toDouble / n,
          "jvm.gc_count"        -> (gcCount1 - gcCount0).toDouble,
          "core.alloc_mb_per_op" -> alloc / 1e6 / n,
          "trace.ops_per_s"     -> n / wallS,
          "trace.spans_per_op"  -> tracer.all.count(s => s.measured && s.op < n).toDouble / n) ++
          Layers.OpLayers.map(l => s"self_ms_per_op.$l" -> opSelf.getOrElse(l, 0.0) / n) ++
          Layers.SetupLayers.map(l => s"setup_self_ms.$l" -> setupSelf.getOrElse(l, 0.0))
        val values = common ++ w.layerMetrics()
        val unknown = values.keySet -- Layers.All.map(_._1)
        require(unknown.isEmpty, s"undeclared per-layer metrics: $unknown")
        Layers.All.map { case (name, unit) => Metric(name, values.getOrElse(name, 0.0), unit) }
      }
    args.traceFile.foreach(tracer.write)
    Outcome(allChecksOk && selfCheck, n, failed, metrics, notes.toSeq)
  }

  def json(o: Outcome): String = {
    def num(x: Double): String = {
      require(!x.isNaN && !x.isInfinite, s"metric value $x")
      java.lang.Double.toString(x)
    }
    val ms = o.metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": ${o.correct}, "attempted": ${o.attempted}, "failed": ${o.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Every per-layer metric, in the order BENCHMARK.json lists them. A
  * workload that does not exercise a layer reports 0 for its metrics.
  */
object Layers {
  val OpLayers    = Seq("kg", "core", "spark", "evolve", "bench")
  val SetupLayers = Seq("jvm", "kg", "exp", "core", "spark")
  val SparkCalls  = Seq("twcs", "srs", "rcs", "reservoir")

  val All: Seq[(String, String)] =
    Seq("kg.gen_ms" -> "ms", "kg.batch_ms" -> "ms") ++
    Seq("movie", "movie_half", "nell", "yago", "movie_syn").map(k => s"exp.load_ms.$k" -> "ms") ++
    Seq("core.summary_ms" -> "ms", "core.prep_ms" -> "ms") ++
    Seq("srs", "rcs", "wcs", "twcs", "strat").map(d => s"core.eval_ms.$d" -> "ms") ++
    Seq("rcs", "wcs", "twcs", "strat").map(d => s"core.draws.$d" -> "count") ++
    Seq("srs", "rcs", "wcs", "twcs", "strat").map(d => s"core.triples.$d" -> "count") ++
    Seq("core.entity_reuse" -> "ratio", "core.alloc_mb_per_op" -> "MB") ++
    Seq("rs", "ss", "baseline").map(e => s"evolve.update_ms.$e" -> "ms") ++
    Seq("rs", "ss", "baseline").map(e => s"evolve.init_ms.$e" -> "ms") ++
    Seq("evolve.rs_late_early" -> "ratio", "evolve.rs_insertions" -> "count",
        "evolve.rs_topup_draws" -> "count") ++
    Seq("rs", "ss", "baseline").map(e => s"evolve.hours.$e" -> "h") ++
    SparkCalls.map(c => s"spark.$c.ms" -> "ms") ++
    SparkCalls.flatMap(c => Seq(
      s"spark.$c.jobs" -> "count", s"spark.$c.stages" -> "count", s"spark.$c.tasks" -> "count",
      s"spark.$c.one_task_stages" -> "count", s"spark.$c.shuffle_mb" -> "MB",
      s"spark.$c.task_ms" -> "ms", s"spark.$c.codegen_classes" -> "count")) ++
    Seq("spark.slot_util" -> "ratio", "spark.codegen_ms" -> "ms") ++
    Seq("jvm.gc_ms_per_op" -> "ms", "jvm.gc_count" -> "count") ++
    OpLayers.map(l => s"self_ms_per_op.$l" -> "ms") ++
    SetupLayers.map(l => s"setup_self_ms.$l" -> "ms") ++
    Seq("trace.ops_per_s" -> "op/s", "trace.spans_per_op" -> "count")
}
