package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{GenerateExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.joins.{BaseJoinExec, BroadcastHashJoinExec}
import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}

class TokenBlockingSpec extends SparkSpec {
  import spark.implicits._

  private lazy val kv = Profiles.toKV(Fixtures.figure1(spark))
  private lazy val agn = TokenBlocking.schemaAgnostic(kv)

  /** Figure 1's attributes in two partitions: names/titles/abstracts in 1,
    * authors in 2.
    */
  private lazy val clusters = Seq(
    ("1::name", 1, 0.4), ("1::authors", 2, 0.8), ("1::abstract", 1, 0.4),
    ("2::title", 1, 0.4), ("2::author", 2, 0.8)).toDF("attrKey", "cluster", "entropy")

  test("figure 1b: exactly the five expected blocking keys") {
    val keys = agn.select("key").distinct().as[String].collect().toSet
    assert(keys == Set("blast", "simonini", "blocking", "gagliardelli", "sparker"))
  }

  test("figure 1b: block memberships match the paper") {
    val blocks = agn.groupBy("key").agg(collect_set("pid") as "pids")
      .as[(String, Seq[Long])].collect().map { case (k, ps) => k -> ps.toSet }.toMap
    assert(blocks("blast") == Set(1L, 3L, 4L))
    assert(blocks("simonini") == Set(1L, 2L, 3L))
    assert(blocks("blocking") == Set(1L, 2L, 3L))
    assert(blocks("gagliardelli") == Set(2L, 4L))
    assert(blocks("sparker") == Set(2L, 4L))
  }

  test("schema-agnostic ignores which attribute a token came from") {
    // "simonini" appears under authors (p1, p2) and author (p3) — one block.
    assert(agn.where($"key" === "simonini").count() == 3)
  }

  test("assignments are distinct per (key, pid)") {
    assert(agn.count() == agn.select("key", "pid").distinct().count())
  }

  test("schema-agnostic sets cluster 0 and entropy 1.0") {
    // The schema-agnostic partition is implicit: a key is the bare token,
    // with no `#cluster` suffix and no cluster column.
    assert(agn.columns.toSeq == Seq("key", "entropy", "pid", "source"))
    assert(agn.where($"key".contains("#") || $"entropy" =!= 1.0).count() == 0)
  }

  test("minTokenLength drops short tokens") {
    // "𝔸" is one code point but two UTF-16 units: `Tokenizer.tokenize`
    // keeps it at length 2, so token blocking must too.
    val p = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("a" -> "ab x 𝔸")), Profile(2, 2, Map("a" -> "ab y 𝔸"))))
    val keys = TokenBlocking.schemaAgnostic(Profiles.toKV(p), minTokenLength = 2)
      .select("key").distinct().as[String].collect().toSet
    assert(keys == Set("ab", "𝔸"))
  }

  test("looseSchema keys carry the partition id") {
    val loose = TokenBlocking.looseSchema(kv, clusters)
    val keys = loose.select("key").distinct().as[String].collect().toSet
    // "simonini" splits: authors/author cluster (2) for p1,p3 — and p2's
    // *abstract* mention stays in cluster 1, exactly the Fig 2b split.
    assert(keys.contains("simonini#2"))
    assert(keys.contains("simonini#1"))
    val s2 = loose.where($"key" === "simonini#2").select("pid").as[Long].collect().toSet
    assert(s2 == Set(1L, 3L))
    val s1 = loose.where($"key" === "simonini#1").select("pid").as[Long].collect().toSet
    assert(s1 == Set(2L))
  }

  test("looseSchema attaches the cluster entropy to each assignment") {
    val loose = TokenBlocking.looseSchema(kv, clusters)
    val ent = loose.where($"key" === "simonini#2").select("entropy").as[Double].collect()
    assert(ent.forall(_ == 0.8))
  }

  test("validBlocks clean-clean drops single-source blocks") {
    val p = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("a" -> "shared onlyone")),
      Profile(2, 1, Map("a" -> "onlyone")),
      Profile(3, 2, Map("a" -> "shared"))))
    val valid = TokenBlocking.validBlocks(
      TokenBlocking.schemaAgnostic(Profiles.toKV(p)), ERMode.CleanClean)
    assert(valid.select("key").distinct().as[String].collect().toSet == Set("shared"))
  }

  test("validBlocks dirty keeps any block with two profiles") {
    val p = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("a" -> "shared lonely")),
      Profile(2, 1, Map("a" -> "shared"))))
    val valid = TokenBlocking.validBlocks(
      TokenBlocking.schemaAgnostic(Profiles.toKV(p)), ERMode.Dirty)
    assert(valid.select("key").distinct().as[String].collect().toSet == Set("shared"))
  }

  test("figure 1: clean-clean comparisons are the four cross-source pairs") {
    val pairs = TokenBlocking.comparisons(agn, ERMode.CleanClean)
      .as[(Long, Long)].collect().toSet
    assert(pairs == Set((1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L)))
  }

  test("figure 1: dirty comparisons include intra-source co-occurrences") {
    val pairs = TokenBlocking.comparisons(agn, ERMode.Dirty)
      .as[(Long, Long)].collect().toSet
    // (1,2) share simonini+blocking; (3,4) share blast.
    assert(pairs == Set((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L), (3L, 4L)))
  }

  /** Rows of the reference `blockPairs` per block: the comparisons each
    * block yields.
    */
  private def pairsPerBlock(mode: ERMode): Map[String, Long] =
    MetaBlockingReference.blockPairs(agn, mode).groupBy("key").count()
      .as[(String, Long)].collect().toMap

  test("blockStats computes per-source sizes and comparison counts") {
    val stats = BlockStatsPropertySpec.blockStats(agn)
      .select("key", "size", "nA", "nB")
      .as[(String, Long, Long, Long)].collect()
      .map(r => r._1 -> r).toMap
    assert(stats("blast") == (("blast", 3L, 1L, 2L)))
    assert(stats("simonini") == (("simonini", 3L, 2L, 1L)))
    assert(stats("sparker") == (("sparker", 2L, 1L, 1L)))
    // A clean-clean block yields nA·nB comparisons.
    assert(pairsPerBlock(ERMode.CleanClean) ==
      stats.values.collect { case (k, _, a, b) if a * b > 0 => k -> a * b }.toMap)
  }

  test("blockStats dirty comparison cardinality is n(n-1)/2") {
    val sizes = BlockStatsPropertySpec.blockStats(agn)
      .select("key", "size").as[(String, Long)].collect()
    val pairs = pairsPerBlock(ERMode.Dirty)
    assert(pairs == sizes.collect { case (k, n) if n > 1 => k -> n * (n - 1) / 2 }.toMap)
    assert(pairs("blast") == 3L)
    assert(pairs("sparker") == 1L)
  }

  test("oracle: block sizes agree with DuckDB") {
    val sizes = agn.groupBy("key").agg(countDistinct("pid") as "cnt")
    Oracle.assertEquivalent(
      sizes,
      "SELECT key, COUNT(DISTINCT pid) AS cnt FROM assignments GROUP BY key",
      "assignments" -> agn.select("key", "pid"))
  }

  test("oracle: clean-clean comparisons agree with a DuckDB self-join") {
    val pairs = TokenBlocking.comparisons(agn, ERMode.CleanClean)
    Oracle.assertEquivalent(
      pairs,
      """SELECT DISTINCT a.pid AS p1, b.pid AS p2
        |FROM assignments a JOIN assignments b ON a.key = b.key
        |WHERE CAST(a.source AS INT) = 1 AND CAST(b.source AS INT) <> 1""".stripMargin,
      "assignments" -> agn.select("key", "pid", "source"))
  }

  test("oracle: dirty comparisons agree with a DuckDB self-join") {
    val pairs = TokenBlocking.comparisons(agn, ERMode.Dirty)
    Oracle.assertEquivalent(
      pairs,
      """SELECT DISTINCT CAST(a.pid AS BIGINT) AS p1, CAST(b.pid AS BIGINT) AS p2
        |FROM assignments a JOIN assignments b ON a.key = b.key
        |WHERE CAST(a.pid AS BIGINT) < CAST(b.pid AS BIGINT)""".stripMargin,
      "assignments" -> agn.select("key", "pid"))
  }

  /** The physical plan of `df` before it runs: with AQE on, the adaptive
    * plan's input plan with the exchanges its operators require added, and
    * none of the rewrites made at run time.
    */
  private def plannedShape(df: DataFrame): SparkPlan = df.queryExecution.executedPlan match {
    case adaptive: AdaptiveSparkPlanExec => adaptive.executedPlan
    case plan => plan
  }

  test("the token → purge → filter → valid chain plans no join and at most three shuffles") {
    val tokenings = Seq(
      "agnostic" -> TokenBlocking.schemaAgnostic(kv),
      "loose" -> TokenBlocking.looseSchema(kv, clusters))
    for ((name, raw) <- tokenings; mode <- Seq(ERMode.CleanClean, ERMode.Dirty)) {
      val chain = TokenBlocking.validBlocks(
        BlockFiltering.filter(BlockPurging.purge(raw, 4, 0.5), 0.8), mode)
      val plan = plannedShape(chain)
      val shuffles = plan.collect { case e: ShuffleExchangeExec => e }
      // Loose token blocking joins the small cluster table as a broadcast;
      // no stage after it joins anything.
      val joins = plan.collect { case j: BaseJoinExec => j }
      val allowed = if (name == "loose") 1 else 0
      assert(joins.forall(_.isInstanceOf[BroadcastHashJoinExec]) && joins.size == allowed,
        s"$name $mode joins:\n$plan")
      assert(shuffles.size <= 3, s"$name $mode has ${shuffles.size} shuffles:\n$plan")
      // The token table is already exploded; token blocking only filters it.
      assert(plan.collect { case g: GenerateExec => g }.isEmpty, s"$name $mode explodes:\n$plan")
    }
  }
}
