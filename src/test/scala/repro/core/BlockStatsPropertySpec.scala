package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Props, SparkSpec}

/** The blocker's block statistics count assignment rows; they are right
  * only because assignments are distinct per `(key, pid)`. These properties
  * check that invariant on both blocking functions, and check the
  * statistics and the three stages that read them against `countDistinct`
  * formulations, over small random profile sets.
  */
class BlockStatsPropertySpec extends SparkSpec with Props {
  import spark.implicits._

  private val vocab = Vector("sony", "tv", "bosch", "washer", "x5", "black", "the", "café")
  private val attrs = Vector("name", "desc", "brand")

  private val genValue: Gen[String] = for {
    n <- Gen.choose(0, 4)
    tokens <- Gen.listOfN(n, Gen.oneOf(vocab))
    sep <- Gen.oneOf(" ", " - ", ", ")
    upper <- Gen.oneOf(false, true)
  } yield {
    val v = tokens.mkString(sep)
    if (upper) v.toUpperCase else v
  }

  private val genProfile: Gen[(Int, Map[String, String])] = for {
    source <- Gen.oneOf(1, 2)
    k <- Gen.choose(1, attrs.size)
    names <- Gen.pick(k, attrs)
    values <- Gen.listOfN(k, genValue)
  } yield (source, names.zip(values).toMap)

  /** Profiles with unique ids, an attribute partitioning, a purge factor and
    * a filter ratio.
    */
  private val genInput = for {
    n <- Gen.choose(1, 10)
    ps <- Gen.listOfN(n, genProfile)
    clusters <- Gen.listOfN(2 * attrs.size, Gen.choose(0, 2))
    factor <- Gen.oneOf(0.3, 0.5, 1.0)
    ratio <- Gen.oneOf(0.5, 0.8, 1.0)
  } yield {
    val profiles = ps.zipWithIndex.map { case ((s, m), i) => Profile(i + 1L, s, m) }
    val attrKeys = for (s <- Seq(1, 2); a <- attrs) yield s"$s::$a"
    (profiles, attrKeys.zip(clusters), factor, ratio)
  }

  /** Schema-agnostic and loose-schema assignments of one input. */
  private def blockings(profiles: Seq[Profile], clusters: Seq[(String, Int)]): Seq[DataFrame] = {
    val kv = Profiles.toKV(Profiles.fromSeq(spark, profiles))
    val clustersDf = clusters.map { case (k, c) => (k, c, (c + 1) / 3.0) }
      .toDF("attrKey", "cluster", "entropy")
    Seq(TokenBlocking.schemaAgnostic(kv), TokenBlocking.looseSchema(kv, clustersDf))
  }

  private def rows(df: DataFrame) =
    df.select("key", "cluster", "entropy", "pid", "source").collect().toSet

  private def refStats(a: DataFrame): DataFrame =
    a.groupBy("key").agg(
      countDistinct("pid") as "size",
      countDistinct(when(col("source") === 1, col("pid"))) as "nA",
      countDistinct(when(col("source") =!= 1, col("pid"))) as "nB")

  private def refPurge(a: DataFrame, total: Long, factor: Double): DataFrame =
    a.join(refStats(a).where(col("size") <= factor * total).select("key"), "key")

  private def refFilter(a: DataFrame, ratio: Double): DataFrame = {
    val byProfile = Window.partitionBy("pid").orderBy(col("size").asc, col("key").asc)
    a.join(refStats(a).select("key", "size"), "key")
      .withColumn("rank", row_number().over(byProfile))
      .withColumn("nBlocks", count(lit(1)).over(Window.partitionBy("pid")))
      .where(col("rank") <= ceil(col("nBlocks") * ratio))
  }

  private def refValid(a: DataFrame, mode: ERMode): DataFrame = {
    val valid = mode match {
      case ERMode.CleanClean => col("nA") > 0 && col("nB") > 0
      case ERMode.Dirty => col("size") >= 2
    }
    a.join(refStats(a).where(valid).select("key"), "key")
  }

  test("property: schemaAgnostic and looseSchema assignments are distinct per (key, pid)") {
    forAllG(genInput, n = 10) { case (profiles, clusters, _, _) =>
      blockings(profiles, clusters).foreach { a =>
        val keyPid = a.select("key", "pid").as[(String, Long)].collect()
        assert(keyPid.distinct.length == keyPid.length)
      }
    }
  }

  test("property: blockStats size/nA/nB equal distinct-pid counts") {
    forAllG(genInput, n = 10) { case (profiles, clusters, _, _) =>
      blockings(profiles, clusters).foreach { a =>
        def stats(df: DataFrame) =
          df.select("key", "size", "nA", "nB").as[(String, Long, Long, Long)].collect().toSet
        assert(stats(TokenBlocking.blockStats(a)) == stats(refStats(a)))
      }
    }
  }

  test("property: purge, filter and validBlocks equal their countDistinct formulations") {
    forAllG(genInput, n = 6) { case (profiles, clusters, factor, ratio) =>
      blockings(profiles, clusters).foreach { a =>
        val total = profiles.size.toLong
        assert(rows(BlockPurging.purge(a, total, factor)) == rows(refPurge(a, total, factor)))
        assert(rows(BlockFiltering.filter(a, ratio)) == rows(refFilter(a, ratio)))
        for (mode <- Seq(ERMode.CleanClean, ERMode.Dirty))
          assert(rows(TokenBlocking.validBlocks(a, mode)) == rows(refValid(a, mode)))
      }
    }
  }
}
