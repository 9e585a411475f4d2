package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** T4 (title claim "Scaling ER in Spark"): blocker wall-clock across a
  * partition sweep, plus meta-blocking alone over the blocker's
  * assignments. On a single box the sweep shows the parallel plumbing
  * works end to end; meta-blocking alone must yield the full blocker's
  * candidates. `millis` are one-shot timings, not a measurement.
  */
class Table4ScalingBench extends SparkSpec {

  private lazy val rows = Experiments.table4(spark, nShared = 1000)

  test("T4: table") {
    info("\n" + Experiments.renderT4(rows))
    assert(rows.nonEmpty)
  }

  test("T4 shape: candidate counts are identical across parallelism levels") {
    val sweep = rows.filter(_.variant == "full blocker")
    assert(sweep.map(_.candidates).distinct.size == 1,
      sweep.map(r => s"${r.partitions}:${r.candidates}").mkString(","))
  }

  test("T4 shape: meta-blocking-only candidates equal the full blocker's candidates") {
    val full = rows.find(_.variant == "full blocker").get
    val mb = rows.find(_.variant == "meta-blocking only").get
    assert(mb.candidates == full.candidates, s"meta-blocking only=${mb.candidates} full=${full.candidates}")
  }

  test("T4 shape: the sweep completes at every parallelism level") {
    val sweep = rows.filter(_.variant == "full blocker")
    assert(sweep.map(_.partitions) == Seq(1, 2, 4, 8, 16))
    assert(sweep.forall(_.millis > 0))
  }

  test("T4 shape: higher parallelism is not catastrophically slower") {
    val sweep = rows.filter(_.variant == "full blocker")
    val p1 = sweep.find(_.partitions == 1).get.millis
    val p16 = sweep.find(_.partitions == 16).get.millis
    // on one box we only require that parallel execution is in the same
    // ballpark or better; distributed speedup is the cluster story.
    assert(p16 <= p1 * 3, s"p1=$p1 ms, p16=$p16 ms")
  }
}
