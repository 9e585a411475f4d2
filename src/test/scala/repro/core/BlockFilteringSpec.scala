package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

class BlockFilteringSpec extends SparkSpec {
  import spark.implicits._

  /** Build an assignments DataFrame directly: (key, pid) memberships. */
  private def asg(rows: (String, Long)*) =
    rows.toDF("key", "pid")
      .withColumn("entropy", lit(1.0))
      .withColumn("source", lit(1))
      .select("key", "entropy", "pid", "source")

  test("removes each profile from its largest blocks only") {
    // p1 in blocks: small(2), mid(3), big(5). ratio 0.6 → keep ceil(1.8)=2 smallest.
    val a = asg(
      ("small", 1L), ("small", 2L),
      ("mid", 1L), ("mid", 2L), ("mid", 3L),
      ("big", 1L), ("big", 2L), ("big", 3L), ("big", 4L), ("big", 5L))
    val kept = BlockFiltering.filter(a, 0.6)
    val p1Keys = kept.where($"pid" === 1).select("key").as[String].collect().toSet
    assert(p1Keys == Set("small", "mid"))
  }

  test("ratio 1.0 keeps every membership") {
    val a = asg(("x", 1L), ("x", 2L), ("y", 1L))
    assert(BlockFiltering.filter(a, 1.0).count() == a.count())
  }

  test("default ratio 0.8 on a profile with 5 blocks keeps 4") {
    val a = asg(
      ("b1", 1L), ("b1", 2L),
      ("b2", 1L), ("b2", 2L), ("b2", 3L),
      ("b3", 1L), ("b3", 2L), ("b3", 3L), ("b3", 4L),
      ("b4", 1L), ("b4", 2L), ("b4", 3L), ("b4", 4L), ("b4", 5L),
      ("b5", 1L), ("b5", 2L), ("b5", 3L), ("b5", 4L), ("b5", 5L), ("b5", 6L))
    val kept = BlockFiltering.filter(a)
    assert(kept.where($"pid" === 1).count() == 4)
    // the dropped one is the largest
    assert(!kept.where($"pid" === 1).select("key").as[String].collect().contains("b5"))
  }

  test("filtering is per-profile: other members of a big block can keep it") {
    // p3 is only in "big", so p3 keeps it even though p1 drops it.
    val a = asg(
      ("s", 1L), ("s", 2L),
      ("m", 1L), ("m", 2L), ("m", 4L),
      ("big", 1L), ("big", 2L), ("big", 3L), ("big", 4L), ("big", 5L))
    val kept = BlockFiltering.filter(a, 0.5)
    assert(kept.where($"pid" === 3 && $"key" === "big").count() == 1)
    assert(kept.where($"pid" === 1 && $"key" === "big").count() == 0)
  }

  test("size ties break deterministically by key") {
    val a = asg(("a", 1L), ("a", 2L), ("z", 1L), ("z", 2L))
    val kept = BlockFiltering.filter(a, 0.5) // keep ceil(1)=1 per profile
    val p1 = kept.where($"pid" === 1).select("key").as[String].collect().toSeq
    assert(p1 == Seq("a"))
  }

  test("invalid ratios rejected") {
    val a = asg(("x", 1L))
    intercept[IllegalArgumentException](BlockFiltering.filter(a, 0.0))
    intercept[IllegalArgumentException](BlockFiltering.filter(a, 1.2))
  }

  test("filtering never increases the assignment count") {
    val a = asg(("x", 1L), ("x", 2L), ("y", 1L), ("y", 2L), ("y", 3L))
    assert(BlockFiltering.filter(a, 0.8).count() <= a.count())
  }

  test("output schema drops the helper columns") {
    val a = asg(("x", 1L), ("x", 2L))
    assert(BlockFiltering.filter(a).columns.toSet ==
      Set("key", "entropy", "pid", "source"))
  }
}
