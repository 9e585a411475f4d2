package repro.core

import org.apache.spark.sql.DataFrame
import org.scalacheck.Gen
import repro.{Fixtures, Props, SparkSpec}
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind}
import repro.lsh.AttributePartitioner
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}

/** The blocker's fused front end against its DataFrame reference,
  * `BlockFiltering.filter(BlockPurging.purge(blocking))` over
  * `TokenBlocking.schemaAgnostic` or `looseSchema`.
  */
class FrontEndSpec extends SparkSpec with Props {
  import spark.implicits._

  /** Profiles, an attribute partitioning, a purge factor (1e-6 purges every
    * block, 0.5 and 1.0 put blocks exactly at the limit) and a filter ratio.
    */
  private val genInput = for {
    input <- RandomBlocks.genProfiles
    factor <- Gen.oneOf(Gen.oneOf(1e-6, 0.5, 1.0), Gen.choose(0.05, 1.0))
    ratio <- Gen.oneOf(Gen.oneOf(0.5, 1.0), Gen.choose(0.05, 1.0))
  } yield (input._1, input._2, factor, ratio)

  private def rows(df: DataFrame) =
    df.select("key", "entropy", "pid", "source").as[(String, Double, Long, Int)].collect().toSet

  test("property: the fused rows equal filter(purge(blocking)) in every profile layout") {
    forAllG(genInput, n = 12) { case (profiles, clusters, factor, ratio) =>
      val total = profiles.size.toLong
      for (m <- Seq(1, 2)) {
        val tables = Seq(None, Some(RandomBlocks.clusterTable(clusters)))
        RandomBlocks.blockings(spark, profiles, clusters, m).zip(tables).foreach { case (raw, table) =>
          val purged = BlockPurging.purge(raw, total, factor)
          val want = rows(BlockFiltering.filter(purged, ratio))
          val nPurged = purged.count()
          for (ps <- RandomBlocks.profileLayouts(spark, profiles, profiles.size)) {
            val (fused, unpurged) = FrontEnd.filtered(ps, table, m, total, factor, ratio)
            val clue = s"minTokenLength=$m loose=${table.nonEmpty} factor=$factor ratio=$ratio " +
              s"partitions=${ps.rdd.getNumPartitions}"
            assert(rows(fused) == want, clue)
            assert(unpurged == nPurged, clue)
          }
        }
      }
    }
  }

  test("property: blocker candidates equal those over the reference front end, in both ER modes") {
    val blast = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg)
    forAllG(genInput, n = 5) { case (profiles, clusters, factor, ratio) =>
      val ps = Profiles.fromSeq(spark, profiles)
      val kv = Profiles.toKV(ps)
      val manual = clusters.toMap
      for {
        mode <- Seq(ERMode.CleanClean, ERMode.Dirty)
        schema <- Seq(SchemaMode.Agnostic, SchemaMode.Manual(manual))
        pruning <- Seq(PruningStrategy.NoPruning, blast)
      } {
        val cfg = SparkERConfig(mode = mode, purgeFactor = factor, filterRatio = ratio,
          schemaMode = schema, pruning = pruning)
        val raw = schema match {
          case SchemaMode.Manual(m) =>
            TokenBlocking.looseSchema(kv, AttributePartitioner.manualClustersDF(spark, kv, m))
          case _ => TokenBlocking.schemaAgnostic(kv)
        }
        val reference = BlockFiltering.filter(BlockPurging.purge(raw, profiles.size, factor), ratio)
        val want = MetaBlocking.candidates(reference, mode, cfg.weightScheme, cfg.useEntropy, pruning)
          .as[(Long, Long)].collect().toSet
        val got = SparkERPipeline.blocker(ps, cfg).candidates.as[(Long, Long)].collect().toSet
        assert(got == want, s"$mode $schema $pruning factor=$factor ratio=$ratio")
      }
    }
  }

  test("size ties break in Spark's string order: \"ｘ\" (U+FF58) before \"𝔸\" (U+1D538)") {
    assert("ｘ".compareTo("𝔸") > 0, "String.compareTo puts 𝔸 first")
    val ps = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("name" -> "𝔸 ｘ")),
      Profile(2, 2, Map("name" -> "ｘ 𝔸"))))
    // Two blocks of size 2 per profile; a ratio of 0.5 keeps one of them.
    val reference = BlockFiltering.filter(
      BlockPurging.purge(TokenBlocking.schemaAgnostic(Profiles.toKV(ps)), 2, 1.0), 0.5)
    val (fused, _) = FrontEnd.filtered(ps, None, 1, 2, 1.0, 0.5)
    assert(rows(reference).map(_._1) == Set("ｘ"))
    assert(rows(fused) == rows(reference))
  }

  test("the block-size read fails above its bound, with the key count") {
    val ps = Fixtures.figure1(spark)
    val total = ps.count()
    val purged = BlockPurging.purge(TokenBlocking.schemaAgnostic(Profiles.toKV(ps)), total)
    val n = purged.select("key").distinct().count().toInt
    val e = intercept[IllegalArgumentException](
      FrontEnd.filtered(ps, None, 1, total, 0.5, 0.8, bound = n - 1))
    assert(e.getMessage.contains(s"at most ${n - 1} keys; there are $n unpurged keys"), e.getMessage)
    val (fused, _) = FrontEnd.filtered(ps, None, 1, total, 0.5, 0.8, bound = n)
    assert(rows(fused) == rows(BlockFiltering.filter(purged, 0.8)))
  }
}
