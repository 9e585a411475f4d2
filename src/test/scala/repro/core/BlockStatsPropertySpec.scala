package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Props, SparkSpec}

/** The blocker's block statistics count assignment rows; they are right
  * only because assignments are distinct per `(key, pid)`. These properties
  * check that invariant on both blocking functions, and their keys against
  * the driver-side tokenizer, and check the
  * statistics and the three stages that read them against `countDistinct`
  * formulations, over small random profile sets: each stage alone, and the
  * three chained as the blocker runs them.
  */
class BlockStatsPropertySpec extends SparkSpec with Props {
  import spark.implicits._

  /** Profiles with unique ids, an attribute partitioning, a purge factor and
    * a filter ratio.
    */
  private val genInput = for {
    input <- RandomBlocks.genProfiles
    factor <- Gen.oneOf(0.3, 0.5, 1.0)
    ratio <- Gen.oneOf(0.5, 0.8, 1.0)
  } yield (input._1, input._2, factor, ratio)

  /** As `genInput`, but each purge factor makes blocks sit exactly at the
    * limit (half or all of the profiles) and filtering always drops some
    * memberships, so that every stage of the chain has work left to do.
    */
  private val genChainInput = for {
    input <- RandomBlocks.genProfiles
    factor <- Gen.oneOf(0.5, 1.0)
    ratio <- Gen.oneOf(0.3, 0.5, 0.8)
  } yield (input._1, input._2, factor, ratio)

  private def blockings(profiles: Seq[Profile], clusters: Seq[(String, Int)]): Seq[DataFrame] =
    RandomBlocks.blockings(spark, profiles, clusters)

  private def rows(df: DataFrame) =
    df.select("key", "entropy", "pid", "source").collect().toSet

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

  /** The `(key, pid)` sets of schema-agnostic and loose-schema blocking,
    * built on the driver from the raw values with `Tokenizer.tokenize`,
    * keeping tokens whose `String.length` is at least `minTokenLength`.
    */
  private def refKeys(
      profiles: Seq[Profile],
      clusters: Seq[(String, Int)],
      minTokenLength: Int): Seq[Set[(String, Long)]] = {
    val clusterOf = clusters.toMap
    def keys(key: (String, String) => String) = (for {
      p <- profiles
      (attr, value) <- p.attributes
      token <- Tokenizer.tokenize(value) if token.length >= minTokenLength
    } yield (key(s"${p.source}::$attr", token), p.id)).toSet
    Seq(keys((_, token) => token), keys((attrKey, token) => s"$token#${clusterOf(attrKey)}"))
  }

  test("property: schemaAgnostic and looseSchema assignments are distinct per (key, pid)") {
    forAllG(genInput, n = 10) { case (profiles, clusters, _, _) =>
      for (m <- Seq(1, 2)) {
        val want = refKeys(profiles, clusters, m)
        RandomBlocks.blockings(spark, profiles, clusters, m).zip(want).foreach { case (a, ref) =>
          val keyPid = a.select("key", "pid").as[(String, Long)].collect()
          assert(keyPid.distinct.length == keyPid.length)
          assert(keyPid.toSet == ref, s"minTokenLength=$m")
        }
      }
    }
  }

  test("property: blockStats size/nA/nB equal distinct-pid counts") {
    forAllG(genInput, n = 10) { case (profiles, clusters, _, _) =>
      blockings(profiles, clusters).foreach { a =>
        def stats(df: DataFrame) =
          df.select("key", "size", "nA", "nB").as[(String, Long, Long, Long)].collect().toSet
        assert(stats(BlockStatsPropertySpec.blockStats(a)) == stats(refStats(a)))
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

  test("property: the chained purge, filter and validBlocks equal the composed formulations") {
    forAllG(genChainInput, n = 8) { case (profiles, clusters, factor, ratio) =>
      val total = profiles.size.toLong
      blockings(profiles, clusters).foreach { raw =>
        val filtered = refFilter(refPurge(raw, total, factor), ratio).localCheckpoint()
        for (mode <- Seq(ERMode.CleanClean, ERMode.Dirty)) {
          val want = rows(refValid(filtered, mode))
          for (input <- raw +: RandomBlocks.layouts(raw, profiles.size)) {
            val chain = TokenBlocking.validBlocks(
              BlockFiltering.filter(BlockPurging.purge(input, total, factor), ratio), mode)
            assert(!chain.queryExecution.analyzed.exists(_.isInstanceOf[LogicalRDD]))
            assert(rows(chain) == want, s"$mode factor=$factor ratio=$ratio")
          }
        }
      }
    }
  }
}

object BlockStatsPropertySpec {

  /** The blocker's per-block counts, `TokenBlocking.withBlockStats`, one
    * row per block: `(key, size, nA, nB)`.
    */
  def blockStats(assignments: DataFrame): DataFrame =
    TokenBlocking.withBlockStats(assignments)
      .select(("key" +: TokenBlocking.BlockStatColumns).map(col): _*)
      .distinct()
}
