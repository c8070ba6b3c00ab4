package repro.kg

import java.util.SplittableRandom

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{Cluster, KGSummary}

import scala.util.Random

/** Synthetic knowledge graphs matched to the data characteristics of Table 3.
  *
  * Each KG is a [[KGData.Law]] whose `toDF` yields a triples DataFrame
  *   (subject: long, line: int, predicate: string, object: string, label: int)
  * where `label` is the ground-truth correctness (1 = correct). Subjects are
  * dense ids; an entity cluster is the set of rows sharing a subject, and
  * `line` numbers them 0 until the cluster size, so (subject, line) names one
  * triple even where two lines carry the same predicate, object and label.
  *
  * See DESIGN.md §3 for the dataset substitutions: the paper's results depend
  * only on the cluster-size distribution, the per-cluster accuracy
  * distribution, and the cost constants — all of which these generators
  * reproduce.
  */
object KGData {

  /** One synthetic KG as a pure function of (seed, subject), so its
    * DataFrame is the same however `spark.range` is split, and the driver
    * builds its summary without a Spark job. Subject s is the cluster that
    * [[LocalKGGen.cluster]] draws from s's own stream; its triples draw their
    * predicate and object from the same stream. Fewer distinct (predicate,
    * object) pairs => denser coupling graph => fewer KGEval seed annotations.
    */
  private[repro] final case class Law(entities: Int, size: Random => Int, model: LabelModel,
                                      nPred: Int, nObj: Int, objConcentration: Double,
                                      seed: Long) {

    /** The stream of one subject, seeded by a 64-bit mix of (seed, subject):
      * seeding with `seed + subject` would correlate java.util.Random's first
      * outputs across neighbouring subjects.
      */
    private def stream(subject: Long): Random =
      new Random(new SplittableRandom(new SplittableRandom(seed).nextLong() + subject).nextLong())

    def summary: KGSummary =
      KGSummary(Array.tabulate(entities)(i => LocalKGGen.cluster(i + 1L, size, model, stream(i + 1L))))

    /** The (subject, line, predicate, object, label) triples of one subject. Its τ
      * correct lines are a uniform τ-subset, by selection sampling (a line is
      * correct w.p. correct-lines-left / lines-left): line order carries no label.
      */
    def triples(subject: Long): Seq[(Long, Int, String, String, Int)] = {
      val rng = stream(subject)
      val c   = LocalKGGen.cluster(subject, size, model, rng)
      var correctLeft = c.tau
      (0 until c.size).map { line =>
        val predicate = s"p${rng.nextInt(nPred)}"
        val obj       = s"o${(math.pow(rng.nextDouble(), objConcentration) * nObj).toLong}"
        val correct   = rng.nextDouble() * (c.size - line) < correctLeft
        if (correct) correctLeft -= 1
        (subject, line, predicate, obj, if (correct) 1 else 0)
      }
    }

    /** The triples of `subjects`, a subset of 1..`entities` split any way. */
    def toDF(subjects: Dataset[java.lang.Long]): DataFrame = {
      val spark = subjects.sparkSession
      import spark.implicits._
      subjects.flatMap(s => triples(s)).toDF("subject", "line", "predicate", "object", "label")
    }

    def toDF(spark: SparkSession): DataFrame = toDF(spark.range(1, entities + 1L))
  }

  /** Seeds and label models of the standard KGs, shared by [[repro.exp.ExpData]]. */
  private[repro] val NellSeed     = 11L
  private[repro] val YagoSeed     = 13L
  private[repro] val MovieSeed    = 17L
  private[repro] val MovieSynSeed = 19L
  private[repro] val MovieModel: LabelModel = LabelModels.REM(0.1)
  /** MOVIE-SYN: MOVIE-like sizes with Binomial-Mixture labels (Eq 15), BMM(c = 0.01, σ = 0.1, k = 3). */
  private[repro] val MovieSynModel: LabelModel = LabelModels.BMM(0.01, 0.1)

  /** NELL-like: 817 entities, ≈1.9K triples, ≈98% of clusters of size <= 4
    * with a thin 5..30 tail (mean ≈2.3). Labels: per-cluster accuracy
    * clamp(N(0.97, 0.17²)) -> overall ≈91%, heterogeneous and independent of
    * size. Small predicate/object vocabularies (domain-specific KG) give the
    * dense coupling KGEval needs.
    */
  private[repro] def nellLaw(seed: Long): Law =
    Law(817, rng => if (rng.nextDouble() < 0.98) {
      val r = rng.nextDouble()
      if (r < 0.45) 1 else if (r < 0.70) 2 else if (r < 0.88) 3 else 4
    } else 5 + rng.nextInt(26),
      LabelModels.NoisyCluster(0.97, 0.17), nPred = 8, nObj = 40, objConcentration = 1.5, seed)

  /** YAGO-like: 822 entities, ≈1.4K triples (mean cluster ≈1.7), REM p=0.99.
    * Broader vocabularies (general-domain KG) => sparser coupling graph.
    */
  private[repro] def yagoLaw(seed: Long): Law =
    Law(822, rng => {
      val r = rng.nextDouble()
      if (r < 0.55) 1 else if (r < 0.85) 2 else if (r < 0.95) 3 else if (r < 0.98) 4 else 5
    }, LabelModels.REM(0.01), nPred = 10, nObj = 50, objConcentration = 1.5, seed)

  private[repro] def movieLaw(scale: Double, model: LabelModel, seed: Long): Law =
    Law(math.max(1L, math.round(288770 * scale)).toInt, LocalKGGen.movieSize, model,
        nPred = 12, nObj = 1000000, objConcentration = 1.0, seed)

  /** MOVIE-like: log-normal cluster sizes (mean ≈9, heavy tail into the
    * thousands); at scale=1.0, 288,770 entities / ≈2.6M triples. Default
    * labels REM(0.1) -> 90% overall, matching MOVIE's measured gold accuracy.
    */
  def movieLike(spark: SparkSession, scale: Double = 1.0, seed: Long = MovieSeed): DataFrame =
    movieLaw(scale, MovieModel, seed).toDF(spark)
}

/** The per-cluster law of every KG, and MOVIE-like evolving-KG update
  * batches drawn with it from one shared rng (the paper draws updates from
  * MOVIE-FULL) without a Spark job per Monte-Carlo batch.
  */
object LocalKGGen {
  /** One log-normal MOVIE-like cluster size: round(exp(N(1.35, 1.3²))), at least 1. */
  def movieSize(rng: Random): Int =
    math.max(1L, math.round(math.exp(rng.nextGaussian() * 1.3 + 1.35))).toInt

  /** Binomial(n, p) by direct simulation (n is a cluster size — small). */
  def binomial(rng: Random, n: Int, p: Double): Int = {
    var hits = 0
    var i = 0
    while (i < n) { if (rng.nextDouble() < p) hits += 1; i += 1 }
    hits
  }

  /** One cluster: its size from `size`, then its p from `model`, then
    * τ ~ Binomial(size, p), all drawn from `rng` in that order.
    */
  def cluster(id: Long, size: Random => Int, model: LabelModel, rng: Random): Cluster = {
    val m = size(rng)
    Cluster(id, m, binomial(rng, m, model.p(m, rng)))
  }

  /** A batch of MOVIE-like clusters under a label model, with ids starting at
    * `idOffset` (update batches must not collide with base subjects).
    */
  def movieClusters(n: Int, model: LabelModel, rng: Random, idOffset: Long): Array[Cluster] =
    Array.tabulate(n)(i => cluster(idOffset + i, movieSize, model, rng))

  /** Clusters totalling approximately `targetTriples` triples. */
  def movieClustersByTriples(targetTriples: Long, model: LabelModel,
                             rng: Random, idOffset: Long): Array[Cluster] = {
    val out = Array.newBuilder[Cluster]
    var total = 0L
    var i = 0L
    while (total < targetTriples) {
      val c = cluster(idOffset + i, movieSize, model, rng)
      out += c
      total += c.size
      i += 1
    }
    out.result()
  }
}
