package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.MetaBlocking._
import repro.pipeline.SparkERPipeline.PruningStrategy
import repro.{Props, SparkSpec}

import scala.util.Random

/** `MetaBlocking.edges` over small random block collections, in both ER
  * modes, with CBS and JS, entropy on and off: it equals the self-join
  * reference, its weights do not depend on how the assignments are
  * partitioned or ordered, and no pruning strategy yields a pair that the
  * blocks do not.
  */
class MetaBlockingPropertySpec extends SparkSpec with Props {
  import spark.implicits._

  private val modes = Seq(ERMode.CleanClean, ERMode.Dirty)
  private val weightings =
    for (s <- Seq(WeightScheme.CBS, WeightScheme.JS); e <- Seq(false, true)) yield (s, e)

  private def edgeMap(df: DataFrame): Map[(Long, Long), Double] =
    df.select("p1", "p2", "weight").as[(Long, Long, Double)].collect()
      .map { case (a, b, w) => (a, b) -> w }.toMap

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.select("p1", "p2").as[(Long, Long)].collect().toSet

  /** Loose-schema assignments of one random input; their entropies differ
    * per cluster.
    */
  private def assignments(input: (Seq[Profile], Seq[(String, Int)])): DataFrame =
    RandomBlocks.blockings(spark, input._1, input._2).last

  test("property: edges equal the self-join reference") {
    forAllG(RandomBlocks.genProfiles, n = 5) { input =>
      val a = assignments(input)
      for (mode <- modes; (scheme, useEntropy) <- weightings) {
        val got = edgeMap(edges(a, mode, scheme, useEntropy))
        val want = edgeMap(MetaBlockingReference.edges(a, mode, scheme, useEntropy))
        assert(got.keySet == want.keySet, s"$mode $scheme entropy=$useEntropy")
        got.foreach { case (e, w) =>
          assert(math.abs(w - want(e)) < 1e-9, s"$mode $scheme entropy=$useEntropy $e: $w vs ${want(e)}")
        }
      }
    }
  }

  test("property: edge weights are bit-identical under repartitioning and row order") {
    forAllG(RandomBlocks.genProfiles, n = 5) { input =>
      val a = assignments(input)
      val shuffled = new Random(input._1.size).shuffle(
        a.as[(String, Int, Double, Long, Int)].collect().toSeq)
        .toDF(a.columns.toIndexedSeq: _*)
      for (mode <- modes; (scheme, useEntropy) <- weightings) {
        val base = edgeMap(edges(a, mode, scheme, useEntropy))
        for (other <- Seq(a.repartition(3), shuffled.repartition(2)))
          assert(edgeMap(edges(other, mode, scheme, useEntropy)) == base,
            s"$mode $scheme entropy=$useEntropy")
      }
    }
  }

  test("property: every pruning strategy keeps a subset of the block comparisons") {
    val strategies = Seq(
      PruningStrategy.Wep(),
      PruningStrategy.Wnp(),
      PruningStrategy.Wnp(ThresholdKind.AvgWeight, NodeCombine.And),
      PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
      PruningStrategy.Cep(3),
      PruningStrategy.Cnp(1))
    forAllG(RandomBlocks.genProfiles, n = 4) { input =>
      val a = assignments(input)
      for (mode <- modes) {
        val unpruned = pairs(TokenBlocking.comparisons(a, mode))
        val e = edges(a, mode, WeightScheme.CBS, useEntropy = true).cache()
        assert(pairs(e) == unpruned)
        strategies.foreach { s =>
          val kept = pairs(s match {
            case PruningStrategy.Wep(f) => wep(e, f)
            case PruningStrategy.Wnp(kind, combine) => wnp(e, kind, combine)
            case PruningStrategy.Cep(k) => cep(e, k)
            case PruningStrategy.Cnp(k) => cnp(e, k)
            case PruningStrategy.NoPruning => e
          })
          assert(kept.subsetOf(unpruned), s"$mode $s")
        }
        e.unpersist()
      }
    }
  }
}
