package repro.spark

import java.util.concurrent.atomic.AtomicInteger

import scala.util.Random

import org.apache.spark.ListenerBusDrain
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{Estimate, EvalConfig, KGSummary, LocalSamplers}
import repro.kg.KGData

class SparkSamplersSpec extends SparkSpec with AdaptiveSparkPlanHelper {
  import spark.implicits._

  /** 4 clusters with sizes 1/2/3/6 and known labels; `line` numbers each cluster's triples. */
  private lazy val triples: DataFrame = Seq(
    (1L, 0, "pA", "o1", 1),
    (2L, 0, "pA", "o2", 1), (2L, 1, "pB", "o3", 0),
    (3L, 0, "pA", "o1", 1), (3L, 1, "pB", "o4", 1), (3L, 2, "pC", "o5", 0),
    (4L, 0, "pA", "o1", 1), (4L, 1, "pA", "o2", 1), (4L, 2, "pB", "o3", 1),
    (4L, 3, "pB", "o4", 0), (4L, 4, "pC", "o5", 0), (4L, 5, "pC", "o6", 1)
  ).toDF("subject", "line", "predicate", "object", "label").cache()

  // ---- cluster summary ----

  test("clusterSummary matches DuckDB's groupBy (oracle)") {
    Oracle.assertEquivalent(
      SparkSamplers.clusterSummary(triples),
      "SELECT CAST(subject AS BIGINT) AS subject, COUNT(*) AS size, " +
        "SUM(CAST(label AS BIGINT)) AS tau FROM t GROUP BY subject",
      "t" -> triples)
  }

  test("KGSummary.fromTriples reflects the DataFrame aggregation") {
    val kg = KGSummary.fromTriples(triples)
    assert(kg.numClusters == 4)
    assert(kg.numTriples == 12)
    assert(math.abs(kg.accuracy - 8.0 / 12) < 1e-12)
    assert(kg.clusters.find(_.id == 4L).get.tau == 4)
  }

  // ---- SRS ----

  test("srsTriples returns exactly n distinct triples from the input") {
    val s = SparkSamplers.srsTriples(triples, 5, seed = 1).collect()
    assert(s.length == 5)
    assert(s.distinct.length == 5)
    val all = triples.collect().map(_.toSeq).toSet
    assert(s.forall(r => all.contains(r.toSeq)))
  }

  test("srsTriples with n = |G| returns the whole KG") {
    assert(SparkSamplers.srsTriples(triples, 12, seed = 2).count() == 12)
  }

  test("srsTriples is deterministic in its seed") {
    val a = SparkSamplers.srsTriples(triples, 4, seed = 3).collect().map(_.toSeq).toSet
    val b = SparkSamplers.srsTriples(triples, 4, seed = 3).collect().map(_.toSeq).toSet
    assert(a == b)
  }

  test("srsTriples is (statistically) uniform over triples") {
    // one large draw: each triple appears at most once; over seeds the
    // count per subject should be size-proportional
    val counts = (0 until 40).flatMap { s =>
      SparkSamplers.srsTriples(triples, 6, seed = 100 + s)
        .groupBy("subject").count().collect()
        .map(r => r.getAs[Long]("subject") -> r.getAs[Long]("count"))
    }.groupBy(_._1).view.mapValues(_.map(_._2).sum).toMap
    // cluster 4 holds half the triples -> about half of all sampled rows
    val total = counts.values.sum.toDouble
    assert(math.abs(counts(4L) / total - 0.5) < 0.1)
  }

  // ---- duplicate rows: each copy is its own triple, told apart by line ----

  test("srsTriples draws each copy of a repeated row, told apart by line") {
    // three correct copies and one wrong row: a single draw is correct w.p. 3/4
    val dup = Seq((1L, 0, 1), (1L, 1, 1), (1L, 2, 1), (1L, 3, 0)).toDF("subject", "line", "label")
    val correct = (0 until 120).count { s =>
      SparkSamplers.srsTriples(dup, 1, seed = 200 + s).head().getAs[Int]("label") == 1
    }
    assert(math.abs(correct / 120.0 - 0.75) < 0.13, s"$correct/120 correct")
    // without replacement over the copies: both copies of a pair rarely come together
    val pairs = (1L to 100L).flatMap(s => Seq((s, 0, 1), (s, 1, 1), (s, 2, 0))).toDF("subject", "line", "label")
    val both = SparkSamplers.srsTriples(pairs, 30, seed = 41)
      .where(col("label") === 1).groupBy("subject").count().where(col("count") === 2).count()
    assert(both < 6, s"$both subjects with both copies, about 1 expected")
  }

  test("twcsSample draws each copy of a repeated row, told apart by line") {
    // per cluster [A, A, B] with A correct: m = 1 is correct w.p. 2/3, m = 2 is A,A w.p. 1/3
    val dup = (1L to 50L).flatMap(s => Seq((s, 0, "p", "o", 1), (s, 1, "p", "o", 1), (s, 2, "q", "o", 0)))
      .toDF("subject", "line", "predicate", "object", "label")
    val one = SparkSamplers.twcsSample(dup, n = 2000, m = 1, seed = 42).agg(avg("label")).head().getDouble(0)
    assert(math.abs(one - 2.0 / 3) < 0.05, s"m = 1: $one correct")
    val aa = SparkSamplers.twcsSample(dup, n = 2000, m = 2, seed = 43)
      .groupBy("draw_id").agg(sum("label").as("hits")).where(col("hits") === 2).count() / 2000.0
    assert(math.abs(aa - 1.0 / 3) < 0.05, s"m = 2: $aa of draws took both copies")
  }

  test("a triples frame without a line column is rejected") {
    val noLine = triples.drop("line")
    val srs = intercept[IllegalArgumentException](SparkSamplers.srsTriples(noLine, 2, seed = 18))
    val second = intercept[IllegalArgumentException](SparkSamplers.twcsSample(noLine, n = 1, m = 2, seed = 19))
    assert(Seq(srs, second).forall(_.getMessage.contains("`line`")))
  }

  // ---- RCS first stage ----

  test("rcsClusterDraws frequencies are uniform over clusters") {
    val d = SparkSamplers.rcsClusterDraws(triples, 2000, seed = 6)
      .groupBy("subject").count().collect()
      .map(r => r.getAs[Long]("subject") -> r.getAs[Long]("count")).toMap
    Seq(1L, 2L, 3L, 4L).foreach { s =>
      assert(math.abs(d(s) / 2000.0 - 0.25) < 0.04, s"subject $s")
    }
  }

  test("expandDraws keeps duplicate first-stage draws as independent replicates") {
    val draws = Seq((0L, 4L), (1L, 4L)).toDF("draw_id", "subject")
    val x = SparkSamplers.expandDraws(draws, triples)
    assert(x.count() == 12) // 6 triples x 2 draws
    assert(x.groupBy("draw_id").count().collect().forall(_.getAs[Long]("count") == 6))
  }

  test("expandDraws is the inner join of the draws and the triples on subject (oracle)") {
    val draws = Seq((0L, 3L), (1L, 1L), (2L, 3L), (3L, 9L), (4L, 4L)).toDF("draw_id", "subject")
    val x = SparkSamplers.expandDraws(draws, triples)
    assert(x.columns.toSeq == Seq("subject", "draw_id", "line", "predicate", "object", "label"))
    Oracle.assertEquivalent(x, "SELECT * FROM d JOIN t USING (subject)", "d" -> draws, "t" -> triples)
  }

  // ---- TWCS second stage ----

  test("twcsSample annotates at most m triples per draw, all from one cluster") {
    val s = SparkSamplers.twcsSample(triples, n = 50, m = 2, seed = 7)
    val per = s.groupBy("draw_id")
      .agg(count(lit(1)).as("cnt"), countDistinct(col("subject")).as("subs"))
      .collect()
    assert(per.length == 50)
    assert(per.forall(r => r.getAs[Long]("cnt") <= 2 && r.getAs[Long]("subs") == 1))
  }

  test("twcsSample samples within a cluster without replacement") {
    val s = SparkSamplers.twcsSample(triples.where(col("subject") === 4L), n = 1, m = 4, seed = 8).collect()
    assert(s.length == 4)
    assert(s.map(_.toSeq).distinct.length == 4)
  }

  test("twcsSample with m above the cluster size returns the full cluster") {
    assert(SparkSamplers.twcsSample(triples.where(col("subject") === 2L), n = 1, m = 99, seed = 9).count() == 2)
  }

  test("twcsSample draws each cluster's second-stage lines uniformly") {
    // a draw of a cluster of size M takes each of its lines w.p. min(M, m)/M
    val s = SparkSamplers.twcsSample(triples, n = 3000, m = 2, seed = 20).cache()
    val draws = s.groupBy("subject").agg(countDistinct("draw_id").as("draws")).collect()
      .map(r => r.getAs[Long]("subject") -> r.getAs[Long]("draws")).toMap
    val sizes = Map(1L -> 1, 2L -> 2, 3L -> 3, 4L -> 6)
    val perLine = s.groupBy("subject", "line").count().collect()
    assert(perLine.length == 12, "every line is drawn")
    perLine.foreach { r =>
      val (subject, line) = (r.getAs[Long]("subject"), r.getAs[Int]("line"))
      val freq = r.getAs[Long]("count").toDouble / draws(subject)
      val want = math.min(sizes(subject), 2).toDouble / sizes(subject)
      assert(math.abs(freq - want) < 0.06, s"subject $subject line $line: $freq, expected $want")
    }
    s.unpersist()
  }

  // ---- reservoir ----

  test("aResKeys produces keys in (0, 1]") {
    val keys = SparkSamplers.aResKeys(SparkSamplers.clusterSummary(triples), seed = 10)
      .select("key").collect().map(_.getAs[Double]("key"))
    assert(keys.length == 4)
    assert(keys.forall(k => k > 0.0 && k <= 1.0))
  }

  test("aResKeys favours larger clusters (keys closer to 1)") {
    // u^(1/size): across seeds, the size-6 cluster should out-rank size-1
    val wins = (0 until 60).count { s =>
      val keys = SparkSamplers.aResKeys(SparkSamplers.clusterSummary(triples), seed = 100 + s)
        .select("subject", "key").collect()
        .map(r => r.getAs[Long]("subject") -> r.getAs[Double]("key")).toMap
      keys(4L) > keys(1L)
    }
    assert(wins > 40, s"size-6 cluster won only $wins/60 seeds")
  }

  test("reservoirMerge keeps the top-capacity keys (oracle)") {
    val current = Seq((1L, 3L, 2L, 0.91), (2L, 1L, 1L, 0.35), (3L, 5L, 5L, 0.78))
      .toDF("subject", "size", "tau", "key")
    val incoming = Seq((10L, 4L, 4L, 0.95), (11L, 2L, 0L, 0.10))
      .toDF("subject", "size", "tau", "key")
    val merged = SparkSamplers.reservoirMerge(current, incoming, capacity = 3)
    Oracle.assertEquivalent(
      merged,
      """SELECT CAST(subject AS BIGINT) AS subject, CAST(size AS BIGINT) AS size,
        |       CAST(tau AS BIGINT) AS tau, CAST(key AS DOUBLE) AS key
        |FROM (SELECT *, row_number() OVER (ORDER BY CAST(key AS DOUBLE) DESC,
        |                                   CAST(subject AS BIGINT)) AS rn
        |      FROM (SELECT * FROM cur UNION ALL SELECT * FROM inc))
        |WHERE rn <= 3""".stripMargin,
      "cur" -> current, "inc" -> incoming)
  }

  test("reservoirMerge never exceeds its capacity") {
    val a = Seq((1L, 1L, 1L, 0.5), (2L, 1L, 0L, 0.6)).toDF("subject", "size", "tau", "key")
    val b = Seq((3L, 1L, 1L, 0.7), (4L, 1L, 1L, 0.8)).toDF("subject", "size", "tau", "key")
    assert(SparkSamplers.reservoirMerge(a, b, 2).count() == 2)
    // and it keeps the two largest keys
    val kept = SparkSamplers.reservoirMerge(a, b, 2).select("subject").collect()
      .map(_.getAs[Long]("subject")).toSet
    assert(kept == Set(3L, 4L))
  }

  // ---- one first-stage law, partition-free plans ----

  private def drawIds(draws: DataFrame): Seq[Long] =
    draws.orderBy("draw_id").select("subject").collect().map(_.getLong(0)).toSeq

  test("wcs/rcs cluster draws are LocalSamplers' draws from new Random(seed)") {
    val kg = KGSummary.fromTriples(triples)
    def local(draw: (KGSummary, Random) => LocalSamplers.ClusterDraw, seed: Long) = {
      val rng = new Random(seed)
      Seq.fill(40)(draw(kg, rng).cluster.id)
    }
    // TWCS's first stage: its distinct (draw_id, subject) pairs
    val twcs = SparkSamplers.twcsSample(triples, n = 40, m = 2, seed = 11).select("draw_id", "subject").distinct()
    assert(drawIds(twcs) == local(LocalSamplers.wcsDraw, 11))
    assert(drawIds(SparkSamplers.rcsClusterDraws(triples, 40, seed = 12)) == local(LocalSamplers.rcsDraw, 12))
  }

  /** The operators `pick` selects from `df`'s executed plan. */
  private def executed[A](df: DataFrame)(pick: PartialFunction[SparkPlan, A]): Seq[A] = {
    df.collect()
    collect(df.queryExecution.executedPlan)(pick)
  }

  /** The executed plan's global windows and exchanges to a single partition.
    * A top-n (TakeOrderedAndProject) merges its partitions' top-n rows on one
    * task without such an exchange; that is allowed.
    */
  private def singlePartitionOps(df: DataFrame) = executed(df) {
    case e: ShuffleExchangeLike if e.outputPartitioning == SinglePartition => e
    case w: WindowExec if w.partitionSpec.isEmpty => w
  }

  /** The partitioning of every shuffle in the executed plan. */
  private def shuffles(df: DataFrame) = executed(df) { case e: ShuffleExchangeLike => e.outputPartitioning }

  test("no sampler plans a global window or an exchange to a single partition") {
    val summary = SparkSamplers.clusterSummary(triples)
    val plans = Seq(
      "twcs" -> SparkSamplers.twcsSample(triples, n = 20, m = 2, seed = 13),
      "rcs" -> SparkSamplers.expandDraws(SparkSamplers.rcsClusterDraws(triples, 20, seed = 14), triples),
      "srs" -> SparkSamplers.srsTriples(triples, 5, seed = 15),
      "reservoir" -> SparkSamplers.reservoirMerge(SparkSamplers.aResKeys(summary, seed = 16),
                                                  SparkSamplers.aResKeys(summary, seed = 17), 3))
    plans.foreach { case (name, df) =>
      val single = singlePartitionOps(df)
      assert(single.isEmpty, s"$name: ${single.mkString("; ")}")
    }
    // after the cluster summary, Spark only fetches rows: TWCS and RCS filter the triples by the
    // driver's drawn subjects, SRS is a top-n over the triples, and A-Res keys a cached summary row by row
    val cached = summary.cache()
    (plans.filter(_._1 != "reservoir") :+ ("aResKeys" -> SparkSamplers.aResKeys(cached, seed = 16))).foreach {
      case (name, df) => assert(shuffles(df).isEmpty, s"$name shuffles: ${shuffles(df).mkString("; ")}")
    }
    cached.unpersist()
  }

  test("every sample is the same on 1, 3 or 8 partitions of the KG") {
    val kg = KGData.movieLike(spark, scale = 0.02, seed = 31)
    val z = EvalConfig().z
    def rows(df: DataFrame) = df.collect().map(_.toSeq.mkString(",")).sorted.toSeq
    /** Each sample's sorted rows, and the TWCS, SRS and RCS estimates. */
    def samples(parts: Int): (Seq[Seq[String]], Seq[Estimate]) = {
      val t = kg.repartition(parts).cache()
      val summary = SparkSamplers.clusterSummary(t)
      val local = KGSummary.fromTriples(t)
      val twcs = SparkSamplers.twcsSample(t, n = 30, m = 3, seed = 32)
      val srs = SparkSamplers.srsTriples(t, 50, seed = 33)
      val rcs = SparkSamplers.expandDraws(SparkSamplers.rcsClusterDraws(t, 30, seed = 34), t)
      val out = Seq(twcs, srs, rcs,
        SparkSamplers.reservoirMerge(
          SparkSamplers.aResKeys(summary.where(col("subject") % 2 === 0), seed = 35),
          SparkSamplers.aResKeys(summary.where(col("subject") % 2 === 1), seed = 36), 20)
      ).map(rows)
      val est = Seq(SparkEstimators.clusterEstimate(twcs, z), SparkEstimators.srsEstimate(srs, z),
        SparkEstimators.rcsEstimate(rcs, local.numClusters.toLong, local.numTriples, z))
      t.unpersist()
      (out, est)
    }
    val (one, oneEst) = samples(1)
    assert(one.forall(_.nonEmpty))
    Seq(3, 8).foreach { parts =>
      val (rows, est) = samples(parts)
      rows.zip(Seq("twcs", "srs", "rcs", "reservoir")).zip(one).foreach {
        case ((s, name), base) => assert(s == base, s"$name on $parts partitions")
      }
      est.zip(Seq("twcs", "srs", "rcs")).zip(oneEst).foreach {
        case ((e, name), base) => assert(e == base, s"$name estimate on $parts partitions")
      }
    }
  }
  // ---- per-call costs paid once: the summary of a persisted frame, compiled code ----

  /** `body`'s value and the number of Spark jobs it started. */
  private def withJobs[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try { val a = body; ListenerBusDrain(sc); (a, started.get) } finally sc.removeSparkListener(listener)
  }

  private def jobs(body: => Any): Int = withJobs(body)._2

  test("a persisted frame's cluster summary is collected once, an uncached frame's on every call") {
    val kg = KGData.movieLike(spark, scale = 0.02, seed = 31)
    val fresh = KGSummary.fromTriples(kg)
    def local(draw: (KGSummary, Random) => LocalSamplers.ClusterDraw, seed: Long) = {
      val rng = new Random(seed)
      Seq.fill(30)(draw(fresh, rng).cluster.id)
    }
    /** The subject of each draw, in draw order, from (draw_id, subject) rows. */
    def drawn(rows: Array[Row]) =
      rows.map(r => r.getLong(0) -> r.getLong(1)).distinct.sortBy(_._1).map(_._2).toSeq
    /** Jobs of one TWCS and one RCS call, each checked against the driver's draws. */
    def calls(t: DataFrame, seed: Long): (Int, Int) = {
      val (twcs, twcsJobs) = withJobs(
        SparkSamplers.twcsSample(t, n = 30, m = 3, seed).select("draw_id", "subject").collect())
      assert(drawn(twcs) == local(LocalSamplers.wcsDraw, seed), s"twcs seed $seed")
      val (rcs, rcsJobs) = withJobs(SparkSamplers.expandDraws(SparkSamplers.rcsClusterDraws(t, 30, seed + 1), t)
        .select("draw_id", "subject").collect())
      assert(drawn(rcs) == local(LocalSamplers.rcsDraw, seed + 1), s"rcs seed ${seed + 1}")
      (twcsJobs, rcsJobs)
    }
    // uncached: every call aggregates
    val summaryJobs = jobs(KGSummary.fromTriples(kg))
    assert(summaryJobs >= 1)
    assert(jobs(KGSummary.fromTriples(kg)) == summaryJobs)
    val (twcsJobs, rcsJobs) = calls(kg, seed = 40)
    assert(calls(kg, seed = 42) == ((twcsJobs, rcsJobs)), "an uncached frame's second call")
    // persisted: the first TWCS call collects the summary, every later call reuses it
    val t = kg.cache()
    t.count()
    assert(calls(t, seed = 44) == ((twcsJobs, rcsJobs - summaryJobs)), "a persisted frame's first calls")
    val second = calls(t, seed = 46)
    assert(second == ((twcsJobs - summaryJobs, rcsJobs - summaryJobs)), "a persisted frame's second calls")
    assert(second == ((1, 1)), "one job per TWCS and per RCS call on a persisted frame")
    assert(jobs(SparkSamplers.rcsClusterDraws(t, 30, seed = 47).collect()) == 0, "the local draws frame")
    assert(jobs(KGSummary.fromTriples(t)) == 0)
    assert(KGSummary.fromTriples(t).clusters.toSeq == fresh.clusters.toSeq)
    // unpersisted: aggregated again
    t.unpersist()
    assert(jobs(KGSummary.fromTriples(t)) == summaryJobs)
    assert(calls(t, seed = 48) == ((twcsJobs, rcsJobs)), "an unpersisted frame's call")
  }

  test("a new seed compiles no new code") {
    val summary = SparkSamplers.clusterSummary(triples).cache()
    val kg = KGData.movieLike(spark, scale = 0.02, seed = 31).cache()
    def srs(seed: Long) = SparkSamplers.srsTriples(triples, 5, seed).collect()
    def reservoir(seed: Long) = SparkSamplers.reservoirMerge(
      SparkSamplers.aResKeys(summary, seed), SparkSamplers.aResKeys(summary, seed + 1), 3).collect()
    // 30 draws name more than 10 subjects, so the subject filter is an `InSet`, held by reference
    def subjects(rows: Array[Row]) = rows.map(_.getAs[Long]("subject")).distinct.length
    def twcs(seed: Long) = subjects(SparkSamplers.twcsSample(kg, n = 30, m = 3, seed).collect())
    def rcs(seed: Long) =
      subjects(SparkSamplers.expandDraws(SparkSamplers.rcsClusterDraws(kg, 30, seed), kg).collect())
    srs(50); reservoir(50)
    assert(twcs(50) > 10 && rcs(50) > 10)
    val compiled = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    (1 to 5).foreach { i => srs(50 + i); reservoir(60 + 2 * i); assert(twcs(50 + i) > 10 && rcs(50 + i) > 10) }
    assert(CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiled == 0, "classes compiled for new seeds")
    kg.unpersist()
    summary.unpersist()
  }

  test("the seeded SRS and A-Res hashes equal xxhash64 of the literal seed, row for row") {
    val kg = KGData.movieLike(spark, scale = 0.02, seed = 31)
    assert(kg.count() > 0)
    Seq(0L, 1L, -7L, 123456789012345L, Long.MinValue, Long.MaxValue).foreach { seed =>
      val srsKey = SparkSamplers.seededHash(seed, "subject", "line") === xxhash64(lit(seed), col("subject"), col("line"))
      val aResKey = SparkSamplers.seededHash(seed, "subject") === xxhash64(lit(seed), col("subject"))
      assert(kg.where(!(srsKey && aResKey)).count() == 0, s"seed $seed")
    }
  }
}
