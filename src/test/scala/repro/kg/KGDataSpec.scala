package repro.kg

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.KGSummary
import repro.exp.{ExpData, Experiments}

import scala.util.Random

class KGDataSpec extends SparkSpec {

  private lazy val nell  = KGSummary.fromTriples(KGData.nellLaw(KGData.NellSeed).toDF(spark))
  private lazy val yago  = KGSummary.fromTriples(KGData.yagoLaw(KGData.YagoSeed).toDF(spark))
  private lazy val movie = KGSummary.fromTriples(KGData.movieLike(spark, scale = 0.02))

  // ---- NELL-like (Table 3: 817 entities, 1860 triples, avg 2.3, 91%) ----

  test("nellLike has 817 entity clusters") {
    assert(nell.numClusters == 817)
  }

  test("nellLike triple count is near the paper's 1860") {
    assert(nell.numTriples >= 1500 && nell.numTriples <= 2400, s"got ${nell.numTriples}")
  }

  test("nellLike mean cluster size is near 2.3") {
    assert(nell.meanClusterSize > 1.8 && nell.meanClusterSize < 2.8)
  }

  test("nellLike gold accuracy is near 91%") {
    assert(nell.accuracy > 0.86 && nell.accuracy < 0.95, s"got ${nell.accuracy}")
  }

  test("nellLike cluster sizes are long-tailed: ~98% below 5") {
    val small = nell.clusters.count(_.size <= 4).toDouble / nell.numClusters
    assert(small > 0.94, s"got $small")
    assert(nell.clusters.map(_.size).max >= 5)
  }

  // ---- YAGO-like (Table 3: 822 entities, 1386 triples, avg 1.7, 99%) ----

  test("yagoLike has 822 entity clusters") {
    assert(yago.numClusters == 822)
  }

  test("yagoLike mean cluster size is near 1.7") {
    assert(yago.meanClusterSize > 1.45 && yago.meanClusterSize < 1.95)
  }

  test("yagoLike gold accuracy is near 99%") {
    assert(yago.accuracy > 0.975, s"got ${yago.accuracy}")
  }

  // ---- MOVIE-like (Table 3: 288,770 entities, 2.65M triples, avg 9.2, 90%) ----

  test("movieLike entity count scales linearly") {
    assert(movie.numClusters == (288770 * 0.02).round)
  }

  test("movieLike mean cluster size is near 9") {
    assert(movie.meanClusterSize > 6 && movie.meanClusterSize < 13, s"got ${movie.meanClusterSize}")
  }

  test("movieLike accuracy under REM(0.1) is near 90%") {
    assert(movie.accuracy > 0.88 && movie.accuracy < 0.92, s"got ${movie.accuracy}")
  }

  test("movieLike has a heavy upper tail of cluster sizes") {
    assert(movie.clusters.map(_.size).max > 100)
  }

  test("movieSyn BMM labels correlate accuracy with cluster size") {
    val syn = KGSummary.fromTriples(
      KGData.movieLaw(0.05, LabelModels.BMM(0.05, 0.1), KGData.MovieSynSeed).toDF(spark))
    def weightedAcc(cs: Array[repro.core.Cluster]): Double =
      cs.map(_.tau.toLong).sum.toDouble / cs.map(_.size.toLong).sum
    val big   = weightedAcc(syn.clusters.filter(_.size >= 20))
    val small = weightedAcc(syn.clusters.filter(_.size <= 3))
    assert(big > small + 0.1, s"big=$big small=$small")
  }

  test("movieSyn default parameters land near the paper's 62% gold accuracy") {
    val syn = KGSummary.fromTriples(
      KGData.movieLaw(0.05, KGData.MovieSynModel, KGData.MovieSynSeed).toDF(spark))
    assert(syn.accuracy > 0.5 && syn.accuracy < 0.75, s"got ${syn.accuracy}")
  }

  test("generators are deterministic in their seed") {
    val a = KGSummary.fromTriples(KGData.nellLaw(99).toDF(spark))
    val b = KGSummary.fromTriples(KGData.nellLaw(99).toDF(spark))
    assert(a.numTriples == b.numTriples && a.accuracy == b.accuracy)
  }

  test("triples carry the expected schema") {
    val df = KGData.yagoLaw(KGData.YagoSeed).toDF(spark)
    assert(df.columns.toSet == Set("subject", "line", "predicate", "object", "label"))
    val labels = df.select("label").distinct().collect().map(_.getInt(0)).toSet
    assert(labels.subsetOf(Set(0, 1)))
  }

  /** A triples DataFrame's rows as `Law.triples` tuples, in (subject, line) order. */
  private def lawRows(df: DataFrame) = df.collect().toSeq
    .map(r => (r.getAs[Long]("subject"), r.getAs[Int]("line"), r.getAs[String]("predicate"),
               r.getAs[String]("object"), r.getAs[Int]("label")))
    .sortBy(r => (r._1, r._2))

  test("every KG is one law of (seed, subject): Spark on 1, 3 or 8 partitions equals the driver") {
    val movie = KGData.movieLaw(0.02, KGData.MovieModel, KGData.MovieSeed)
    val syn   = KGData.movieLaw(0.05, KGData.MovieSynModel, KGData.MovieSynSeed)
    val laws = Seq(
      KGData.nellLaw(KGData.NellSeed) -> ExpData.Nell,
      KGData.yagoLaw(KGData.YagoSeed) -> ExpData.Yago,
      movie -> movie.summary,
      syn   -> syn.summary)
    laws.foreach { case (law, driver) =>
      val expected = (1L to law.entities).flatMap(law.triples)
      Seq(1, 3, 8).foreach { parts =>
        val df = law.toDF(spark.range(1, law.entities + 1L, 1, parts))
        val where = s"${law.entities} entities, seed ${law.seed}, $parts partitions"
        assert(KGSummary.fromTriples(df).clusters.toSeq == driver.clusters.toSeq, where)
        // each subject's lines are 0 until its size, and every row is the law's
        val rows = lawRows(df)
        val lines = rows.groupMap(_._1)(_._2)
        assert(driver.clusters.forall(c => lines(c.id) == (0 until c.size)), where)
        assert(rows == expected, where)
      }
    }
    val sparkNell = lawRows(KGData.nellLaw(KGData.NellSeed).toDF(spark))
      .map { case (subject, _, predicate, obj, label) => (subject, predicate, obj, label) }
    assert(sparkNell == ExpData.kgEvalTriples(KGData.nellLaw(KGData.NellSeed))
      .map(t => (t.subject, t.predicate, t.objectV, t.trueLabel)))
  }

  test("each standard KG's summary is built once, and kgbench's loaders return that instance") {
    val standard = Seq(
      ("NELL", ExpData.Nell, ExpData.nell(spark), KGData.nellLaw(KGData.NellSeed)),
      ("YAGO", ExpData.Yago, ExpData.yago(spark), KGData.yagoLaw(KGData.YagoSeed)),
      ("MOVIE", ExpData.Movie, ExpData.movie(spark),
        KGData.movieLaw(1.0, KGData.MovieModel, KGData.MovieSeed)),
      ("MOVIE-SYN", ExpData.MovieSyn, ExpData.movieSyn(spark),
        KGData.movieLaw(1.0, KGData.MovieSynModel, KGData.MovieSynSeed)),
      ("MOVIE at 0.5", ExpData.MovieHalf, Experiments.evolvingBase(spark),
        KGData.movieLaw(0.5, KGData.MovieModel, KGData.MovieSeed)))
    standard.foreach { case (name, value, forwarded, law) =>
      assert(forwarded eq value, name)
      assert(value.clusters.sameElements(law.summary.clusters), name)
    }
  }

  test("a cluster's correct lines sit at uniform positions, not first") {
    // REM(0.5): were the first τ lines the correct ones, line 1 would be
    // correct whenever τ >= 1 (≈80% of clusters of size >= 2), not 50%.
    val law = KGData.Law(20000, LocalKGGen.movieSize, LabelModels.REM(0.5),
                         nPred = 12, nObj = 1000, objConcentration = 1.0, seed = 5)
    val lines = (1L to law.entities).map(law.triples).filter(_.size >= 2).map(_.map(_._5))
    val first = lines.map(_.head).sum.toDouble / lines.size
    val last  = lines.map(_.last).sum.toDouble / lines.size
    assert(math.abs(first - 0.5) < 0.03 && math.abs(last - 0.5) < 0.03, s"first=$first last=$last")
  }

  // ---- LocalKGGen (evolving-KG update batches) ----

  test("LocalKGGen.movieClustersByTriples reaches its triple target") {
    val rng = new Random(1)
    val cs = LocalKGGen.movieClustersByTriples(5000, LabelModels.REM(0.1), rng, idOffset = 100)
    val total = cs.map(_.size.toLong).sum
    assert(total >= 5000 && total < 5000 + 3000)
  }

  test("LocalKGGen ids start at the offset and are distinct") {
    val cs = LocalKGGen.movieClusters(100, LabelModels.REM(0.5), new Random(2), idOffset = 777)
    assert(cs.map(_.id).min == 777)
    assert(cs.map(_.id).distinct.length == 100)
  }

  test("LocalKGGen accuracy tracks the label model") {
    val rng = new Random(3)
    val cs = LocalKGGen.movieClustersByTriples(50000, LabelModels.REM(0.3), rng, 0)
    val acc = cs.map(_.tau.toLong).sum.toDouble / cs.map(_.size.toLong).sum
    assert(math.abs(acc - 0.7) < 0.02, s"got $acc")
  }

  test("LocalKGGen size law matches the Spark generator's mean") {
    val rng = new Random(4)
    val sizes = (1 to 30000).map(_ => LocalKGGen.movieSize(rng))
    val mean = sizes.sum.toDouble / sizes.size
    assert(mean > 6 && mean < 13, s"got $mean")
  }

  test("LocalKGGen.binomial stays within [0, n]") {
    val rng = new Random(5)
    (1 to 200).foreach { _ =>
      val x = LocalKGGen.binomial(rng, 10, 0.4)
      assert(x >= 0 && x <= 10)
    }
  }
}
