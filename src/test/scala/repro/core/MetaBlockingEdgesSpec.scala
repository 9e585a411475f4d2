package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, concat, lit}
import repro.core.MetaBlocking._
import repro.data.ERData
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}
import repro.{Fixtures, SparkSpec}

/** The paper's broadcast meta-blocking, `MetaBlocking.edges`, against the
  * key self-join in [[MetaBlockingReference]]: the same weighted graph,
  * and the same graph after pruning.
  */
class MetaBlockingEdgesSpec extends SparkSpec {
  import spark.implicits._

  private def edgeMap(df: DataFrame): Map[(Long, Long), Double] =
    df.select("p1", "p2", "weight").as[(Long, Long, Double)].collect()
      .map { case (a, b, w) => (a, b) -> w }.toMap

  /** The same pairs, with weights within 1e-9. */
  private def assertSameGraph(got: DataFrame, want: DataFrame): Unit = {
    val (g, w) = (edgeMap(got), edgeMap(want))
    assert(g.keySet == w.keySet)
    g.foreach { case (e, x) => assert(math.abs(x - w(e)) < 1e-9, s"$e: $x vs ${w(e)}") }
  }

  private lazy val fig1 =
    TokenBlocking.schemaAgnostic(Profiles.toKV(Fixtures.figure1(spark))).cache()

  private lazy val erAssignments: DataFrame = {
    val ds = ERData.abtBuy(spark, nShared = 60, nOnlyA = 10, nOnlyB = 10)
    SparkERPipeline.blocker(
      ds.profiles,
      SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning)
    ).assignments
  }

  /** Edges of both implementations. */
  private def both(
      a: DataFrame,
      mode: ERMode = ERMode.CleanClean,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false): (DataFrame, DataFrame) = {
    val (e, r) = (edges(a, mode, scheme, useEntropy),
      MetaBlockingReference.edges(a, mode, scheme, useEntropy))
    assertSameGraph(e, r)
    (e, r)
  }

  test("figure 1: broadcast CBS weights match the paper") {
    val (e, _) = both(fig1)
    assert(edgeMap(e) == Fixtures.figure1CbsWeights)
  }

  test("figure 1: broadcast WNP matches dataframe WNP") {
    val (e, r) = both(fig1)
    assertSameGraph(wnp(e), wnp(r))
  }

  test("parity on ER data: CBS + WNP avg/or") {
    val (e, r) = both(erAssignments)
    assertSameGraph(wnp(e), wnp(r))
  }

  test("parity on ER data: CBS + WNP blast rule") {
    val (e, r) = both(erAssignments)
    assertSameGraph(
      wnp(e, ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
      wnp(r, ThresholdKind.MaxFraction(0.5), NodeCombine.Avg))
  }

  test("parity on ER data: JS + WNP and") {
    val (e, r) = both(erAssignments, scheme = WeightScheme.JS)
    assertSameGraph(wnp(e, combine = NodeCombine.And), wnp(r, combine = NodeCombine.And))
  }

  test("parity on ER data: entropy-weighted CBS + WEP") {
    val ds = ERData.abtBuy(spark, nShared = 60, nOnlyA = 10, nOnlyB = 10)
    val loose = SparkERPipeline.blocker(
      ds.profiles,
      SparkERConfig(pruning = PruningStrategy.NoPruning)).assignments
    val (e, r) = both(loose, useEntropy = true)
    assertSameGraph(wep(e), wep(r))
  }

  test("parity in dirty mode") {
    val dirty = ERData.dirty(spark, nShared = 40)
    val a = TokenBlocking.validBlocks(
      TokenBlocking.schemaAgnostic(Profiles.toKV(dirty.profiles)), ERMode.Dirty)
    val (e, r) = both(a, ERMode.Dirty)
    assertSameGraph(wnp(e), wnp(r))
  }

  test("broadcast WEP matches dataframe WEP on figure 1") {
    val (e, r) = both(fig1)
    assertSameGraph(wep(e), wep(r))
  }

  test("broadcast output contains no duplicate edges") {
    val e = edges(erAssignments, ERMode.CleanClean)
    assert(e.count() == e.select("p1", "p2").distinct().count())
  }

  test("the block index is read to the driver only within its bound") {
    val n = fig1.count().toInt
    val e = intercept[IllegalArgumentException](boundedIndexRows(fig1, bound = 3))
    assert(e.getMessage.contains(s"at most 3 assignments; these blocks hold $n"), e.getMessage)
    assert(boundedIndexRows(fig1, bound = n).length == n)
  }

  test("every strategy, NoPruning included, fails above the assignment bound with the count") {
    val n = DriverAssignmentBound + 1L
    val big = spark.range(n).select(
      concat(lit("k"), (col("id") % 1000).cast("string")) as "key",
      col("id") as "pid",
      (col("id") % 2 + 1).cast("int") as "source",
      lit(1.0) as "entropy")
    val messages = Seq(PruningStrategy.NoPruning, PruningStrategy.Wnp()).map { s =>
      intercept[IllegalArgumentException](
        candidates(big, ERMode.CleanClean, WeightScheme.CBS, useEntropy = false, s)).getMessage
    }
    assert(messages.distinct == Seq(s"requirement failed: meta-blocking broadcasts the block " +
      s"index, which holds at most $DriverAssignmentBound assignments; these blocks hold $n"))
  }
}
