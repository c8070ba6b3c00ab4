package repro.evolve

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.evolve.IncrementalEval._
import repro.exp.Experiments
import repro.kg.{LabelModels, LocalKGGen}

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.util.Random

class IncrementalSpec extends AnyFunSuite {
  private val cfg = EvalConfig()
  private val m   = 5

  /** MOVIE-like base at 90% accuracy, small enough for many trials. */
  private def makeBase(seed: Long): KGSummary =
    KGSummary(LocalKGGen.movieClusters(20000, LabelModels.REM(0.1), new Random(seed), 0))

  private def makeBatch(base: KGSummary, frac: Double, acc: Double,
                        rng: Random, batchNo: Int): Array[Cluster] =
    LocalKGGen.movieClustersByTriples((base.numTriples * frac).toLong,
      LabelModels.REM(1 - acc), rng, 1000000L + batchNo * 100000L)

  private def truthAfter(base: KGSummary, batches: Seq[Array[Cluster]]): Double = {
    val all = base.clusters ++ batches.flatten
    all.map(_.tau.toLong).sum.toDouble / all.map(_.size.toLong).sum
  }

  // ---- Baseline ----

  test("Baseline re-evaluates the merged KG and converges") {
    val base = makeBase(1)
    val rng = new Random(2)
    val ev = new BaselineEvaluator(m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.3, 0.9, rng, 0)
    val r = ev.applyUpdate(batch)
    assert(r.converged && r.moe <= cfg.eps)
    assert(math.abs(r.estimate - truthAfter(base, Seq(batch))) < 0.06)
  }

  // ---- RS ----

  test("RS estimate stays near the truth after an update") {
    val base = makeBase(3)
    val rng = new Random(4)
    val ev = new ReservoirEvaluator(capacity = 30, m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.3, 0.9, rng, 0)
    val r = ev.applyUpdate(batch)
    assert(r.converged)
    assert(math.abs(r.estimate - truthAfter(base, Seq(batch))) < 0.08)
  }

  test("RS is unbiased over repeated trials") {
    val base = makeBase(5)
    val ests = (0 until 60).map { t =>
      val rng = new Random(100 + t)
      val ev = new ReservoirEvaluator(30, m, cfg, rng)
      ev.initialize(base)
      ev.applyUpdate(makeBatch(base, 0.3, 0.9, rng, 0)).estimate
    }
    val batchTruth = 0.9 // both strata sit at 90%
    assert(math.abs(Stats.mean(ests) - batchTruth) < 0.015)
  }

  test("RS pays only for clusters that enter the reservoir (plus top-ups)") {
    val base = makeBase(6)
    val rng = new Random(7)
    val ev = new ReservoirEvaluator(30, m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.2, 0.9, rng, 0)
    val r = ev.applyUpdate(batch)
    // far fewer new annotations than the batch size
    assert(r.newEntities < batch.length / 10)
    assert(r.costSeconds == cfg.cost.seconds(r.newEntities.toLong, r.newTriples))
  }

  test("RS insertion count stays near the Prop 3 bound across a batch") {
    val base = makeBase(8)
    val rng = new Random(9)
    val ev = new ReservoirEvaluator(30, m, cfg, rng)
    ev.initialize(base)
    val before = ev.totalInsertions
    val batch = makeBatch(base, 0.5, 0.9, rng, 0)
    ev.applyUpdate(batch)
    val inserted = ev.totalInsertions - before
    // |R| log(N_j/N_i) with N_j/N_i ≈ 1.5 -> ≈ 12; allow generous slack
    assert(inserted < 60, s"inserted $inserted")
  }

  test("RS stops at the cost budget when the MoE target cannot be reached") {
    val base = makeBase(19)
    val rng = new Random(20)
    val capped = EvalConfig(eps = 0.001, maxCostSeconds = 3600.0)
    val ev = new ReservoirEvaluator(30, m, capped, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.1, 0.9, rng, 0)
    // a daemon thread, so that an update that never stops cannot hold the run
    val r = Await.result(Future(ev.applyUpdate(batch))(ExecutionContext.global), 60.seconds)
    assert(!r.converged)
    val oneBatch = capped.clusterBatch * capped.cost.seconds(1, m)
    assert(r.costSeconds >= capped.maxCostSeconds)
    assert(r.costSeconds <= capped.maxCostSeconds + oneBatch, s"cost ${r.costSeconds}")
  }

  test("update batches of one sequence share no cluster id with each other or the base") {
    val base = makeBase(21)
    // 60% batches hold about 12K clusters each, more than 10K ids apart
    val batches = Experiments.updateBatches(base, 0.6, 0.9, new Random(22)).take(3).toSeq
    assert(batches.forall(_.length > 10000))
    val ids = base.clusters.map(_.id) ++ batches.flatMap(_.map(_.id))
    assert(ids.distinct.length == ids.length)
  }

  // ---- SS ----

  test("SS estimate stays near the truth after an update") {
    val base = makeBase(10)
    val rng = new Random(11)
    val ev = new StratifiedEvaluator(m, cfg, rng)
    ev.initialize(base)
    val batch = makeBatch(base, 0.3, 0.5, rng, 0)
    val r = ev.applyUpdate(batch)
    assert(r.converged && r.moe <= cfg.eps)
    assert(math.abs(r.estimate - truthAfter(base, Seq(batch))) < 0.06)
  }

  test("SS handles a sequence of updates, one stratum per batch") {
    val base = makeBase(12)
    val rng = new Random(13)
    val ev = new StratifiedEvaluator(m, cfg, rng)
    ev.initialize(base)
    val batches = (0 until 3).map(b => makeBatch(base, 0.1, 0.9, rng, b))
    val rs = batches.map(ev.applyUpdate)
    rs.foreach(r => assert(r.converged))
    assert(math.abs(rs.last.estimate - truthAfter(base, batches)) < 0.05)
  }

  test("SS reuses base annotations: update cost is far below a fresh run") {
    val base = makeBase(14)
    val rng = new Random(15)
    val baseline = new BaselineEvaluator(m, cfg, new Random(16))
    baseline.initialize(base)
    val ss = new StratifiedEvaluator(m, cfg, rng)
    ss.initialize(base)
    val batch = makeBatch(base, 0.1, 0.9, rng, 0)
    val bCost = baseline.applyUpdate(batch).costSeconds
    val sCost = ss.applyUpdate(batch).costSeconds
    assert(sCost < bCost * 0.6, s"ss=$sCost baseline=$bCost")
  }

  test("mean per-update cost orders SS < RS < Baseline in the standard setting") {
    val base = makeBase(17)
    def meanCost(mk: Random => Array[Cluster] => SnapshotResult): Double = {
      val costs = (0 until 25).map { t =>
        val rng = new Random(300 + t)
        val run = mk(rng)
        run(makeBatch(base, 0.3, 0.9, rng, 0)).costSeconds
      }
      Stats.mean(costs)
    }
    val b = meanCost { rng => val e = new BaselineEvaluator(m, cfg, rng); e.initialize(base); e.applyUpdate }
    val r = meanCost { rng => val e = new ReservoirEvaluator(30, m, cfg, rng); e.initialize(base); e.applyUpdate }
    val s = meanCost { rng => val e = new StratifiedEvaluator(m, cfg, rng); e.initialize(base); e.applyUpdate }
    assert(s < r, s"SS=$s RS=$r")
    assert(r < b, s"RS=$r Baseline=$b")
  }

  // ---- fault tolerance (Fig 9) ----

  test("RS sheds an injected bias through turnover and re-randomizes; SS is sticky") {
    val base = makeBase(18)
    val batches = 12
    val runs = 12

    /** (mean signed deviation per batch, mean per-run |estimate move|). */
    def stats(mk: Random => Array[Cluster] => SnapshotResult): (Seq[Double], Double) = {
      val trajs = (0 until runs).map { r =>
        val rng = new Random(1900 + r * 131)
        val apply = mk(rng)
        (0 until batches).map(b => apply(makeBatch(base, 0.1, 0.9, rng, b)).estimate - 0.9)
      }
      val traj = (0 until batches).map(b => Stats.mean(trajs.map(_(b))))
      val vol = Stats.mean(trajs.map(t =>
        Stats.mean(t.sliding(2).map(w => math.abs(w(1) - w(0))).toSeq)))
      (traj, vol)
    }

    val (rs, rsVol) = stats { rng =>
      val e = new ReservoirEvaluator(30, m, cfg, rng, initBias = -0.07)
      e.initialize(base); e.applyUpdate
    }
    val (ss, ssVol) = stats { rng =>
      val e = new StratifiedEvaluator(m, cfg, rng, initBias = -0.07)
      e.initialize(base); e.applyUpdate
    }

    // RS turnover has shed a visible share of the injection by batch 12
    assert(math.abs(rs.last) < math.abs(rs.head) * 0.85 + 0.005,
      s"RS ${rs.head} -> ${rs.last}")
    // SS still carries most of its bias (pure weight dilution)
    assert(math.abs(ss.last) > math.abs(ss.head) * 0.3, s"SS ${ss.head} -> ${ss.last}")
    // and RS re-randomizes while SS trajectories are dilution-smooth
    assert(rsVol > 1.5 * ssVol, s"RS vol $rsVol vs SS vol $ssVol")
  }

  test("SnapshotResult converts cost to hours") {
    assert(SnapshotResult(0.9, 0.01, 1, 1, 1800.0, converged = true).costHours == 0.5)
  }
}
