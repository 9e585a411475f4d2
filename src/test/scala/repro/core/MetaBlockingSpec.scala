package repro.core

import org.apache.spark.sql.functions._
import repro.core.MetaBlocking._
import repro.{Fixtures, Oracle, SparkSpec}

class MetaBlockingSpec extends SparkSpec {
  import spark.implicits._

  private lazy val agn =
    TokenBlocking.schemaAgnostic(Profiles.toKV(Fixtures.figure1(spark))).cache()

  private def edgeMap(df: org.apache.spark.sql.DataFrame): Map[(Long, Long), Double] =
    df.select("p1", "p2", "weight").as[(Long, Long, Double)].collect()
      .map { case (a, b, w) => (a, b) -> w }.toMap

  test("figure 1c: CBS weights match the paper") {
    assert(edgeMap(edges(agn, ERMode.CleanClean)) == Fixtures.figure1CbsWeights)
  }

  test("figure 1c: WEP (above-average) removes exactly the dashed edge") {
    val kept = edgeMap(wep(edges(agn, ERMode.CleanClean))).keySet
    assert(kept == Set((1L, 3L), (2L, 3L), (2L, 4L)))
  }

  test("JS weights: jaccard of block lists") {
    val w = edgeMap(edges(agn, ERMode.CleanClean, WeightScheme.JS))
    // |B(p1)|=3 |B(p2)|=4 |B(p3)|=3 |B(p4)|=3
    assert(math.abs(w((1L, 3L)) - 1.0) < 1e-12)          // 3/(3+3-3)
    assert(math.abs(w((1L, 4L)) - 0.2) < 1e-12)          // 1/(3+3-1)
    assert(math.abs(w((2L, 3L)) - 0.4) < 1e-12)          // 2/(4+3-2)
    assert(math.abs(w((2L, 4L)) - 0.4) < 1e-12)
  }

  test("dirty mode produces intra-source edges too") {
    val w = edgeMap(edges(agn, ERMode.Dirty))
    assert(w((1L, 2L)) == 2.0) // simonini + blocking
    assert(w((3L, 4L)) == 1.0) // blast
    assert(w.size == 6)
  }

  test("entropy weighting: CBS becomes the sum of block entropies") {
    // Hand-build assignments with entropies: author-cluster blocks 0.8,
    // title-cluster blocks 0.4 (Fig 2 values).
    val a = Seq(
      // simonini#2 (entropy .8): p1, p3
      ("simonini#2", 0.8, 1L, 1), ("simonini#2", 0.8, 3L, 2),
      // blast#1 (entropy .4): p1, p3, p4
      ("blast#1", 0.4, 1L, 1), ("blast#1", 0.4, 3L, 2), ("blast#1", 0.4, 4L, 2),
      // sparker#1 (entropy .4): p2, p4
      ("sparker#1", 0.4, 2L, 1), ("sparker#1", 0.4, 4L, 2),
    ).toDF("key", "entropy", "pid", "source")
    val w = edgeMap(edges(a, ERMode.CleanClean, WeightScheme.CBS, useEntropy = true))
    assert(math.abs(w((1L, 3L)) - 1.2) < 1e-12) // 0.8 + 0.4
    assert(math.abs(w((1L, 4L)) - 0.4) < 1e-12)
    assert(math.abs(w((2L, 4L)) - 0.4) < 1e-12)
  }

  test("entropy weighting: JS is scaled by the mean common-block entropy") {
    val a = Seq(
      ("k1", 0.5, 1L, 1), ("k1", 0.5, 3L, 2),
      ("k2", 1.0, 1L, 1), ("k2", 1.0, 3L, 2),
    ).toDF("key", "entropy", "pid", "source")
    val w = edgeMap(edges(a, ERMode.CleanClean, WeightScheme.JS, useEntropy = true))
    // plain JS = 2/(2+2-2) = 1; mean entropy = 0.75
    assert(math.abs(w((1L, 3L)) - 0.75) < 1e-12)
  }

  test("nodeThresholds AvgWeight: per-node mean of incident weights") {
    val th = nodeThresholds(edges(agn, ERMode.CleanClean), ThresholdKind.AvgWeight)
      .as[(Long, Double)].collect().toMap
    assert(th(1L) == 2.0)  // (3+1)/2
    assert(th(2L) == 2.0)  // (2+2)/2
    assert(th(3L) == 2.5)  // (3+2)/2
    assert(th(4L) == 1.5)  // (1+2)/2
  }

  test("nodeThresholds MaxFraction: c times the max incident weight") {
    val th = nodeThresholds(edges(agn, ERMode.CleanClean), ThresholdKind.MaxFraction(0.5))
      .as[(Long, Double)].collect().toMap
    assert(th(1L) == 1.5 && th(2L) == 1.0 && th(3L) == 1.5 && th(4L) == 1.0)
  }

  test("WNP Or keeps an edge either endpoint accepts") {
    val kept = edgeMap(wnp(edges(agn, ERMode.CleanClean))).keySet
    // (1,4): w=1 < θ1=2 and < θ4=1.5 → dropped; everything else kept.
    assert(kept == Set((1L, 3L), (2L, 3L), (2L, 4L)))
  }

  test("WNP And requires both endpoints") {
    val kept = edgeMap(
      wnp(edges(agn, ERMode.CleanClean), combine = NodeCombine.And)).keySet
    // (2,3): w=2 ≥ θ2=2 but < θ3=2.5 → dropped under And.
    assert(kept == Set((1L, 3L), (2L, 4L)))
  }

  test("WNP Blast rule (max/2, avg combine)") {
    val kept = edgeMap(
      wnp(edges(agn, ERMode.CleanClean), ThresholdKind.MaxFraction(0.5), NodeCombine.Avg)).keySet
    // (1,4): 1 < (1.5+1.0)/2 = 1.25 → dropped; others pass.
    assert(kept == Set((1L, 3L), (2L, 3L), (2L, 4L)))
  }

  test("CEP keeps the global top-k with deterministic ties") {
    val kept = edgeMap(cep(edges(agn, ERMode.CleanClean), 2)).keySet
    assert(kept == Set((1L, 3L), (2L, 3L))) // w=3, then tie w=2 broken by p1 asc
  }

  test("CEP with k >= |E| keeps everything") {
    assert(cep(edges(agn, ERMode.CleanClean), 100).count() == 4)
  }

  test("CNP k=1: union of every node's best edge") {
    val kept = edgeMap(cnp(edges(agn, ERMode.CleanClean), 1)).keySet
    // p1→(1,3); p2→(2,3) (tie broken by p2 asc); p3→(1,3); p4→(2,4)
    assert(kept == Set((1L, 3L), (2L, 3L), (2L, 4L)))
  }

  test("pruning requires positive k") {
    val e = edges(agn, ERMode.CleanClean)
    intercept[IllegalArgumentException](cep(e, 0))
    intercept[IllegalArgumentException](cnp(e, 0))
  }

  test("WEP factor scales the global threshold") {
    val e = edges(agn, ERMode.CleanClean)
    assert(wep(e, factor = 0.1).count() == 4) // threshold 0.2 keeps all
    assert(wep(e, factor = 1.5).count() == 1) // threshold 3.0 keeps only (1,3)
  }

  test("oracle: CBS weights agree with a DuckDB join-aggregate") {
    val e = edges(agn, ERMode.CleanClean)
      .select($"p1", $"p2", $"weight".cast("long") as "w")
    Oracle.assertEquivalent(
      e,
      """SELECT CAST(a.pid AS BIGINT) AS p1, CAST(b.pid AS BIGINT) AS p2,
        |       COUNT(*) AS w
        |FROM assignments a JOIN assignments b ON a.key = b.key
        |WHERE CAST(a.source AS INT) = 1 AND CAST(b.source AS INT) <> 1
        |GROUP BY a.pid, b.pid""".stripMargin,
      "assignments" -> agn.select("key", "pid", "source"))
  }

  test("edges on an empty assignment set is empty") {
    val empty = agn.where(lit(false))
    assert(edges(empty, ERMode.CleanClean).count() == 0)
  }
}
