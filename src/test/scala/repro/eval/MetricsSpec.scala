package repro.eval

import org.scalacheck.Gen
import repro.{Props, SparkSpec}

class MetricsSpec extends SparkSpec with Props {
  import spark.implicits._

  private lazy val gt = Seq((1L, 101L), (2L, 102L), (3L, 103L)).toDF("idA", "idB")

  test("perfect candidate set: recall 1, precision 1") {
    val pairs = Seq((1L, 101L), (2L, 102L), (3L, 103L)).toDF("p1", "p2")
    val m = Metrics.evaluatePairs(pairs, gt)
    assert(m.recall == 1.0 && m.precision == 1.0 && m.f1 == 1.0 && m.lost == 0)
  }

  test("partial recall and precision") {
    val pairs = Seq((1L, 101L), (1L, 102L), (9L, 109L)).toDF("p1", "p2")
    val m = Metrics.evaluatePairs(pairs, gt)
    assert(m.truePositives == 1)
    assert(math.abs(m.recall - 1.0 / 3) < 1e-12)
    assert(math.abs(m.precision - 1.0 / 3) < 1e-12)
    assert(m.lost == 2)
  }

  test("orientation of pairs does not matter") {
    val pairs = Seq((101L, 1L), (102L, 2L)).toDF("p1", "p2")
    val m = Metrics.evaluatePairs(pairs, gt)
    assert(m.truePositives == 2)
  }

  test("duplicate pairs are collapsed") {
    val pairs = Seq((1L, 101L), (101L, 1L), (1L, 101L)).toDF("p1", "p2")
    val m = Metrics.evaluatePairs(pairs, gt)
    assert(m.pairs == 1)
  }

  test("empty candidate set: recall 0, precision 0") {
    val pairs = Seq.empty[(Long, Long)].toDF("p1", "p2")
    val m = Metrics.evaluatePairs(pairs, gt)
    assert(m.recall == 0.0 && m.precision == 0.0 && m.f1 == 0.0)
    assert(m.lost == 3)
  }

  test("empty ground truth: recall defined as 1") {
    val pairs = Seq((1L, 2L)).toDF("p1", "p2")
    val m = Metrics.evaluatePairs(pairs, Seq.empty[(Long, Long)].toDF("idA", "idB"))
    assert(m.recall == 1.0)
  }

  test("lostPairs lists exactly the missed ground truth") {
    val pairs = Seq((1L, 101L)).toDF("p1", "p2")
    val lost = Metrics.lostPairs(pairs, gt).as[(Long, Long)].collect().toSet
    assert(lost == Set((2L, 102L), (3L, 103L)))
  }

  test("evaluateClusters counts intra-cluster pairs") {
    // cluster {1,101}, cluster {2,102,103}: pairs (1,101),(2,102),(2,103),(102,103)
    val clusters = Seq(
      (1L, 1L), (101L, 1L),
      (2L, 2L), (102L, 2L), (103L, 2L)).toDF("pid", "entityId")
    val m = Metrics.evaluateClusters(clusters, gt)
    assert(m.pairs == 4)
    assert(m.truePositives == 2) // (1,101) and (2,102)
  }

  test("singleton clusters contribute no pairs") {
    val clusters = Seq((1L, 1L), (2L, 2L), (3L, 3L)).toDF("pid", "entityId")
    val m = Metrics.evaluateClusters(clusters, gt)
    assert(m.pairs == 0)
  }

  test("evaluateClusters counts a self pair and a pair with an unlabelled end in the ground truth only") {
    val clusters = Seq((1L, 1L), (101L, 1L), (5L, 5L)).toDF("pid", "entityId")
    val truth = Seq((1L, 101L), (101L, 1L), (5L, 5L), (5L, 999L)).toDF("idA", "idB")
    val m = Metrics.evaluateClusters(clusters, truth)
    assert(m == Metrics.PairMetrics(pairs = 1, gtSize = 3, truePositives = 1))
    assert(m == MetricsReference.evaluateClusters(clusters, truth))
  }

  test("property: evaluateClusters counts equal the intra-cluster self-join reference") {
    // Profiles 0..19, each in one of up to six clusters (or none); ground
    // truth pairs over 0..24, so some ends are unlabelled, with self pairs,
    // both orientations and duplicates.
    val clustering = Gen.listOfN(20, Gen.option(Gen.choose(0L, 5L))).map { labels =>
      labels.zipWithIndex.collect { case (Some(e), pid) => (pid.toLong, 100L + e) }
    }
    val truth = Gen.listOf(Gen.zip(Gen.choose(0L, 24L), Gen.choose(0L, 24L)))
    forAllG2(clustering, truth, n = 25) { (c, t) =>
      val clusters = c.toDF("pid", "entityId")
      val gtDf = t.toDF("idA", "idB")
      assert(Metrics.evaluateClusters(clusters, gtDf) ==
        MetricsReference.evaluateClusters(clusters, gtDf))
    }
  }

  test("reductionRatio") {
    assert(Metrics.reductionRatio(100, 100, 100) == 0.99)
    assert(Metrics.reductionRatio(0, 10, 10) == 1.0)
    assert(Metrics.reductionRatio(0, 0, 10) == 0.0)
  }

  test("f1 is the harmonic mean") {
    val m = Metrics.PairMetrics(pairs = 4, gtSize = 2, truePositives = 2)
    // recall 1, precision 0.5 → f1 = 2/3
    assert(math.abs(m.f1 - 2.0 / 3) < 1e-12)
  }
}
