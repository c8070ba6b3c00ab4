package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.{ExpData, Experiments}

/** Table 6 — TWCS vs the KGEval baseline on NELL and YAGO.
  *
  * Paper: NELL  KGEval 12.44h machine / 140 annotated / 2.3h human / 91.84%
  *              TWCS   <1s machine / 149±47 / 1.85±0.6h / 91.63%
  *        YAGO  KGEval 18.13h machine / 204 annotated / 3.17h human / 99.30%
  *              TWCS   <1s machine / 32±5 / 0.44±0.07h / 99.2%
  * The original's machine time comes from PSL inference; the reproduced shape
  * is KGEval's machine time sitting orders of magnitude above TWCS's, and its
  * annotation count being blind to KG accuracy.
  */
class Table6Bench extends AnyFunSuite {

  private lazy val (rows, lines) = Experiments.table6()

  private def row(kg: String, mth: String) =
    rows.find(r => r.kg == kg && r.method == mth).get

  test("Table 6 report") {
    info("== Table 6: TWCS vs KGEval ==")
    lines.foreach(info(_))
    assert(rows.size == 4)
  }

  test("KGEval machine time dwarfs TWCS machine time on both KGs") {
    Seq("NELL", "YAGO").foreach { kgName =>
      val kge  = row(kgName, "KGEval").machineMillis
      val twcs = row(kgName, "TWCS").machineMillis
      assert(kge > 20 * twcs, s"$kgName: KGEval $kge ms vs TWCS $twcs ms")
    }
  }

  test("KGEval annotates a similar share of both KGs — accuracy-blind") {
    val nellFrac = row("NELL", "KGEval").annotated / ExpData.Nell.numTriples
    val yagoFrac = row("YAGO", "KGEval").annotated / ExpData.Yago.numTriples
    assert(nellFrac > 0.03 && nellFrac < 0.35, s"NELL $nellFrac")
    assert(yagoFrac > 0.03 && yagoFrac < 0.35, s"YAGO $yagoFrac")
  }

  test("on the 99%-accurate YAGO, TWCS annotates a small fraction of KGEval's count") {
    val kge  = row("YAGO", "KGEval").annotated
    val twcs = row("YAGO", "TWCS").annotated
    assert(twcs < kge * 0.5, s"TWCS $twcs vs KGEval $kge")
  }

  test("TWCS is cheaper in human time on both KGs") {
    Seq("NELL", "YAGO").foreach { kgName =>
      assert(row(kgName, "TWCS").hours < row(kgName, "KGEval").hours, kgName)
    }
  }

  test("both methods estimate accuracy within 4% of gold") {
    val gold = Map("NELL" -> ExpData.Nell.accuracy, "YAGO" -> ExpData.Yago.accuracy)
    rows.foreach { r =>
      assert(math.abs(r.estimate - gold(r.kg)) < 0.04, s"${r.kg}/${r.method} ${r.estimate}")
    }
  }
}
