package repro

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.evolve.SnapshotResult
import repro.evolve.IncrementalEval._
import repro.kg.{LabelModels, LocalKGGen}

import scala.util.Random

class DrawOrderSpec extends AnyFunSuite {
  private val cfg = EvalConfig()
  private val kg  = KGSummary(LocalKGGen.movieClusters(2000, LabelModels.REM(0.1), new Random(41), 0))

  private def static: Seq[(String, EvalResult)] = Seq(
    "srs"    -> StaticEval.srs(kg, cfg, new Random(1)),
    "rcs"    -> StaticEval.rcs(kg, cfg, new Random(2)),
    "wcs"    -> StaticEval.wcs(kg, cfg, new Random(3)),
    "twcs"   -> StaticEval.twcs(kg, 5, cfg, new Random(4)),
    "size"   -> StaticEval.twcsStratified(Stratification.sizeStrata(kg, 3), 5, cfg, new Random(5)),
    "oracle" -> StaticEval.twcsStratified(Stratification.oracleStrata(kg, 2), 5, cfg, new Random(6)),
    "capped" -> StaticEval.rcs(kg, cfg.copy(maxCostSeconds = 3600), new Random(7)))

  private def updates(apply: Array[Cluster] => SnapshotResult): Seq[SnapshotResult] = {
    val rng = new Random(100)
    (0 until 3).map(b => apply(LocalKGGen.movieClustersByTriples(kg.numTriples / 10,
      LabelModels.REM(0.1), rng, 1000000L + b * 100000L)))
  }

  private def evolving: Seq[(String, Seq[SnapshotResult])] = Seq(
    "baseline" -> updates { val e = new BaselineEvaluator(5, cfg, new Random(11)); e.initialize(kg); e.applyUpdate },
    "rs"       -> updates { val e = new ReservoirEvaluator(30, 5, cfg, new Random(12)); e.initialize(kg); e.applyUpdate },
    "ss"       -> updates { val e = new StratifiedEvaluator(5, cfg, new Random(13)); e.initialize(kg); e.applyUpdate })

  // Values recorded from the separate stop loops that preceded the shared
  // Fig 2 loop: equal values mean every design makes the same random draws.
  test("static designs make the recorded draws") {
    assert(static == Seq(
      "srs"    -> EvalResult(0.9166666666666666, 0.04945071380495951, 0, 104, 120, 7680.0, true),
      "rcs"    -> EvalResult(0.9197918995608289, 0.04999741008560468, 7510, 1960, 17858, 534650.0, true),
      "wcs"    -> EvalResult(0.9053152815184011, 0.03447445377590224, 10, 10, 1201, 30475.0, true),
      "twcs"   -> EvalResult(0.9200000000000002, 0.04405618705467059, 20, 20, 84, 3000.0, true),
      "size"   -> EvalResult(0.9033201316920482, 0.04606420168366297, 41, 39, 196, 6655.0, true),
      "oracle" -> EvalResult(0.9267626137303556, 0.049158108570630084, 25, 25, 122, 4175.0, true),
      "capped" -> EvalResult(0.7113316790736145, 0.31848027695631836, 20, 20, 143, 4475.0, false)))
  }

  test("incremental evaluators make the recorded draws over three updates") {
    assert(evolving == Seq(
      "baseline" -> Seq(
        SnapshotResult(0.9029999999999997, 0.048042580884132935, 49, 235, 8080.0, true),
        SnapshotResult(0.8490909090909088, 0.04875039836716156, 52, 264, 8940.0, true),
        SnapshotResult(0.9226666666666666, 0.04811568545015163, 24, 111, 3855.0, true)),
      // Updates 2 and 3 each draw one cluster twice; Eq 4 charges its entity
      // once, so each costs one c1 (45 s) less than a per-draw count would.
      "rs" -> Seq(
        SnapshotResult(0.8899999999999999, 0.047668863635625, 31, 147, 5070.0, true),
        SnapshotResult(0.8854545454545453, 0.0483629461813932, 26, 128, 4370.0, true),
        SnapshotResult(0.8507692307692304, 0.04768547949846958, 38, 183, 6285.0, true)),
      "ss" -> Seq(
        SnapshotResult(0.9127343750000001, 0.04244275223430977, 5, 22, 775.0, true),
        SnapshotResult(0.9016635299518019, 0.042324324854136015, 5, 22, 775.0, true),
        SnapshotResult(0.9030830474738493, 0.039748999344131876, 5, 24, 825.0, true))))
  }
}
