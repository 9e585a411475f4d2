package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** T3 (§2.2/§3): matcher scheme × threshold sweep over Blast candidates,
  * plus connected-components clustering. Asserts the tuning behaviour the
  * demo's supervised mode is built around: the threshold trades precision
  * against recall, F1 peaks at an interior threshold, and clustering via
  * transitivity does not destroy pair quality.
  */
class Table3EndToEndBench extends SparkSpec {

  private lazy val rows = Experiments.table3(spark, nShared = 800)

  test("T3: table") {
    info("\n" + Experiments.renderT3(rows))
    assert(rows.nonEmpty)
  }

  test("T3 shape: raising the threshold never increases matches or recall") {
    rows.groupBy(_.scheme).foreach { case (scheme, rs) =>
      val sorted = rs.sortBy(_.threshold)
      sorted.sliding(2).foreach {
        case Seq(lo, hi) =>
          assert(hi.matchPairs <= lo.matchPairs, s"$scheme: matches not monotone")
          assert(hi.pairRecall <= lo.pairRecall + 1e-12, s"$scheme: recall not monotone")
        case _ =>
      }
    }
  }

  test("T3 shape: precision is high at a strict threshold") {
    val strict = rows.filter(r => r.scheme == "jaccard" && r.threshold >= 0.6)
    assert(strict.forall(_.pairPrecision >= 0.9),
      strict.map(r => s"${r.threshold}:${r.pairPrecision}").mkString(","))
  }

  test("T3 shape: jaccard F1 peaks at an interior threshold") {
    val j = rows.filter(_.scheme == "jaccard").sortBy(_.threshold)
    val best = j.maxBy(_.pairF1)
    assert(best.threshold > j.head.threshold && best.threshold < j.last.threshold,
      s"best F1 at boundary threshold ${best.threshold}")
  }

  test("T3 shape: some configuration reaches F1 >= 0.7 end to end") {
    assert(rows.exists(_.clusterF1 >= 0.7),
      s"best clusterF1 = ${rows.map(_.clusterF1).max}")
  }

  test("T3 shape: clustering tracks pair quality (transitivity assumption)") {
    val best = rows.filter(_.scheme == "jaccard").maxBy(_.pairF1)
    assert(math.abs(best.clusterF1 - best.pairF1) < 0.2,
      s"pairF1 ${best.pairF1} vs clusterF1 ${best.clusterF1}")
  }
}
