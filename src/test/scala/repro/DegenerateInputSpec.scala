package repro

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.evolve.SnapshotResult
import repro.evolve.IncrementalEval._

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.util.Random

/** Degenerate inputs: every static design and one Baseline, RS and SS update
  * must stop, return an estimate in its range and spend at most the budget
  * plus one batch of its design.
  */
class DegenerateInputSpec extends AnyFunSuite with PropHelper {

  /** A KG, an update batch of the same kind, the second-stage m and the config. */
  private final class Task(val base: KGSummary, val batch: Array[Cluster], val m: Int, val cfg: EvalConfig) {
    val all: KGSummary = KGSummary(base.clusters ++ batch)
    override def toString: String =
      s"Task(base=${base.clusters.toSeq}, batch=${batch.toSeq}, m=$m, cfg=$cfg)"
  }

  private def clusters(n: Gen[Int], tau: Int => Gen[Int], idOffset: Long): Gen[Array[Cluster]] =
    n.flatMap(k => Gen.listOfN(k, Gen.choose(1, 40).flatMap(s => tau(s).map(t => (s, t)))))
      .map(_.zipWithIndex.map { case ((s, t), i) => Cluster(idOffset + i, s, t) }.toArray)

  private def task(n: Gen[Int], tau: Int => Gen[Int], m: Gen[Int],
                   cfg: Gen[EvalConfig] = Gen.const(EvalConfig())): Gen[Task] = for {
    base  <- clusters(n, tau, 0L)
    batch <- clusters(n, tau, 1000L)
    mm    <- m
    c     <- cfg
  } yield new Task(KGSummary(base), batch, mm, c)

  private val mixed: Int => Gen[Int] = s => Gen.choose(0, s)
  private val someClusters = Gen.choose(1, 60)
  private val smallM = Gen.choose(1, 10)

  /** Runs on a daemon thread, so that a loop that never stops fails the test. */
  private def stops[A](run: => A): A = Await.result(Future(run)(ExecutionContext.global), 30.seconds)

  private def maxSize(kg: KGSummary): Int = kg.clusters.map(_.size).max

  private def checkTask(t: Task): Prop = {
    import t._
    val rng = new Random(base.clusters.length * 31L + m)
    val budget = cfg.maxCostSeconds
    def drawCost(size: Int): Double = cfg.cost.seconds(1, size)
    val twcsBatch = cfg.clusterBatch * drawCost(math.min(m, maxSize(all)))

    // room for rounding: a weighted sum of values at the top of the range
    // may land an ulp above it
    def inRange(x: Double, hi: Double): Boolean = x >= 0 && x <= hi * (1 + 1e-12)

    def static(name: String, r: EvalResult, hi: Double, oneBatch: Double): Prop =
      (inRange(r.estimate, hi) :| s"$name estimate ${r.estimate} outside [0, $hi]") &&
      ((r.costSeconds <= budget + oneBatch) :| s"$name cost ${r.costSeconds} > $budget + $oneBatch")

    val rcsMax = base.numClusters.toDouble * base.clusters.map(_.tau).max / base.numTriples
    val wholeBatch = cfg.clusterBatch * drawCost(maxSize(base))
    val staticRuns = Seq(
      static("srs", stops(StaticEval.srs(base, cfg, rng)), 1.0, cfg.srsBatch * drawCost(1)),
      static("rcs", stops(StaticEval.rcs(base, cfg, rng)), rcsMax, wholeBatch),
      static("wcs", stops(StaticEval.wcs(base, cfg, rng)), 1.0, wholeBatch),
      static("twcs", stops(StaticEval.twcs(base, m, cfg, rng)), 1.0, twcsBatch),
      static("size strata", stops(StaticEval.twcsStratified(
        Stratification.sizeStrata(base, 3), m, cfg, rng)), 1.0, twcsBatch),
      static("oracle strata", stops(StaticEval.twcsStratified(
        Stratification.oracleStrata(base, 2), m, cfg, rng)), 1.0, twcsBatch))

    def update(name: String, r: => SnapshotResult, maxCost: Double): Prop = {
      val s = stops(r)
      (inRange(s.estimate, 1.0) :| s"$name estimate ${s.estimate} outside [0, 1]") &&
      ((s.costSeconds <= maxCost) :| s"$name cost ${s.costSeconds} > $maxCost")
    }
    // RS annotates every cluster that enters the reservoir, whatever the
    // budget; only its top-up draws honour it.
    val insertMax = batch.map(c => drawCost(math.min(m, c.size))).sum
    val updates = Seq(
      update("baseline", { val e = new BaselineEvaluator(m, cfg, rng); e.initialize(base); e.applyUpdate(batch) },
        budget + twcsBatch),
      update("rs", { val e = new ReservoirEvaluator(cfg.minClusterDraws, m, cfg, rng); e.initialize(base); e.applyUpdate(batch) },
        math.max(insertMax, budget + twcsBatch)),
      update("ss", { val e = new StratifiedEvaluator(m, cfg, rng); e.initialize(base); e.applyUpdate(batch) },
        budget + twcsBatch))
    Prop.all(staticRuns ++ updates: _*)
  }

  test("property: all-correct KGs") {
    checkProp(Prop.forAll(task(someClusters, s => Gen.const(s), smallM))(checkTask))
  }

  test("property: all-wrong KGs") {
    checkProp(Prop.forAll(task(someClusters, _ => Gen.const(0), smallM))(checkTask))
  }

  test("property: a single cluster") {
    checkProp(Prop.forAll(task(Gen.const(1), mixed, smallM))(checkTask))
  }

  test("property: m at or above every cluster size") {
    checkProp(Prop.forAll(task(someClusters, mixed, Gen.choose(40, 50)))(checkTask))
  }

  test("property: an unreachable ε under a finite budget") {
    val capped = Gen.choose(60.0, 20000.0).map(b => EvalConfig(eps = 1e-4, maxCostSeconds = b))
    checkProp(Prop.forAll(task(someClusters, mixed, smallM, capped))(checkTask))
  }
}
