package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** T2 (Fig 6e, Figs 1c/2c): meta-blocking variants. Asserts the paper's
  * claims: meta-blocking removes "least promising comparisons" at scale
  * (large candidate reduction, recall mostly preserved), and the
  * entropy-weighted loose-schema variant (Blast) prunes hardest —
  * "a large decrease in the number of candidate pairs w.r.t. [blocking]
  * thus proving the effectiveness of our technique".
  */
class Table2MetaBlockingBench extends SparkSpec {

  private lazy val rows = Experiments.table2(spark, nShared = 800)
  private def byPrefix(p: String) = rows.find(_.config.startsWith(p)).get

  test("T2: table") {
    info("\n" + Experiments.renderT2(rows))
    assert(rows.size == 5)
  }

  test("T2 shape: every meta-blocking variant cuts candidates vs no meta-blocking") {
    val base = byPrefix("token blocking").candidates
    rows.filterNot(_.config.startsWith("token blocking")).foreach { r =>
      assert(r.candidates < base, s"${r.config}: ${r.candidates} !< $base")
    }
  }

  test("T2 shape: meta-blocking cuts candidates by a large factor") {
    val base = byPrefix("token blocking").candidates
    val mb = byPrefix("schema-agnostic MB (CBS").candidates
    assert(mb * 2 <= base, s"mb=$mb base=$base")
  }

  test("T2 shape: meta-blocking preserves most of the recall") {
    rows.foreach(r => assert(r.recall >= 0.85, s"${r.config}: recall ${r.recall}"))
  }

  test("T2 shape: Blast (entropy) prunes more than the same pipeline without entropy") {
    val noEnt = byPrefix("loose MB, no entropy").candidates
    val blast = byPrefix("Blast").candidates
    assert(blast < noEnt, s"blast=$blast noEntropy=$noEnt")
  }

  test("T2 shape: Blast has the best precision of all configs") {
    val blast = byPrefix("Blast")
    rows.filterNot(_.config.startsWith("Blast")).foreach { r =>
      assert(blast.precision >= r.precision,
        s"Blast ${blast.precision} vs ${r.config} ${r.precision}")
    }
  }

  test("T2 shape: Blast improves F1 over raw token blocking") {
    assert(byPrefix("Blast").f1 > byPrefix("token blocking").f1)
  }
}
