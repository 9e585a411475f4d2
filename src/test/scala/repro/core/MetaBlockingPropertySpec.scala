package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.avg
import repro.core.MetaBlocking._
import repro.data.ERData
import repro.lsh.AttributePartitioner
import repro.{Props, SparkSpec}

/** `MetaBlocking.edges` and `MetaBlocking.candidates` over small random
  * block collections, in both ER modes, with CBS and JS, entropy on and
  * off: `edges` equals the self-join reference and
  * `TokenBlocking.comparisons` its distinct pairs, `candidates` equals the
  * DataFrame pruning functions applied to `edges`, neither depends on how
  * the assignments are partitioned or ordered, no pruning strategy
  * yields a pair that the blocks do not, and the block index's validity
  * rule makes `candidates` over filtered assignments equal `candidates`
  * over their `TokenBlocking.validBlocks`.
  */
class MetaBlockingPropertySpec extends SparkSpec with Props {
  import spark.implicits._

  private val modes = Seq(ERMode.CleanClean, ERMode.Dirty)
  private val weightings =
    for (s <- Seq(WeightScheme.CBS, WeightScheme.JS); e <- Seq(false, true)) yield (s, e)

  private val strategies = Seq(
    PruningStrategy.Wep(),
    PruningStrategy.Wep(0.5),
    PruningStrategy.Wnp(),
    PruningStrategy.Wnp(ThresholdKind.AvgWeight, NodeCombine.And),
    PruningStrategy.Wnp(ThresholdKind.AvgWeight, NodeCombine.Avg),
    PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
    PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Or),
    PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.8), NodeCombine.And),
    PruningStrategy.Cep(3),
    PruningStrategy.Cep(Long.MaxValue),
    PruningStrategy.Cnp(1),
    PruningStrategy.Cnp(2))

  /** One strategy per threshold computation of the fused path. */
  private val onePerPath = Seq(
    PruningStrategy.Wep(),
    PruningStrategy.Wnp(),
    PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
    PruningStrategy.Cep(3),
    PruningStrategy.Cnp(2))

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

  /** The DataFrame pruning function of `s` over the edges `e`. */
  private def reference(e: DataFrame, s: PruningStrategy): DataFrame = s match {
    case PruningStrategy.Wep(f) => wep(e, f)
    case PruningStrategy.Wnp(kind, combine) => wnp(e, kind, combine)
    case PruningStrategy.Cep(k) => cep(e, k)
    case PruningStrategy.Cnp(k) => cnp(e, k)
    case PruningStrategy.NoPruning => e
  }

  /** Where `got` and `want` differ on an edge, `s` must compare its weight
    * with a threshold that is a floating-point sum (WEP's global mean, or
    * a node's mean under AvgWeight), and the weight must be within 1e-9 of
    * it: the two sides add the same weights in different orders. The
    * message shows the edge with the threshold from Spark's `avg` and from
    * a sum in edge order.
    */
  private def assertSameUpToSumOrder(
      got: Set[(Long, Long)],
      want: Set[(Long, Long)],
      weights: Map[(Long, Long), Double],
      s: PruningStrategy,
      clue: String): Unit = {
    val diff = (got -- want) ++ (want -- got)
    if (diff.nonEmpty) {
      val ordered = weights.toSeq.sortBy(_._1)
      def mean(ws: Seq[Double]) = ws.foldLeft(0.0)(_ + _) / ws.size
      def nodeMean(n: Long) = mean(ordered.collect { case ((a, b), w) if a == n || b == n => w })
      val e = weights.toSeq.map { case ((a, b), w) => (a, b, w) }.toDF("p1", "p2", "weight")
      diff.foreach { case edge @ (p1, p2) =>
        val w = weights(edge)
        val (sparkTh, orderedTh) = s match {
          case PruningStrategy.Wep(f) =>
            val m = e.agg(avg("weight")).first().getDouble(0)
            (Seq(f * m), Seq(f * mean(ordered.map(_._2))))
          case PruningStrategy.Wnp(ThresholdKind.AvgWeight, _) =>
            val th = nodeThresholds(e, ThresholdKind.AvgWeight).as[(Long, Double)].collect().toMap
            val (t1, t2) = (th(p1), th(p2))
            val (o1, o2) = (nodeMean(p1), nodeMean(p2))
            (Seq(t1, t2, (t1 + t2) / 2), Seq(o1, o2, (o1 + o2) / 2))
          case _ => fail(s"$clue $s: $edge kept by ${if (got(edge)) "candidates" else "the reference"} only")
        }
        assert(sparkTh.exists(t => math.abs(w - t) <= 1e-9),
          s"$clue $s: edge $edge of weight $w, thresholds ${sparkTh.mkString(", ")} (Spark avg) " +
            s"and ${orderedTh.mkString(", ")} (edge order)")
      }
    }
  }

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
      for (mode <- modes) {
        def sorted(df: DataFrame) = df.select("p1", "p2").as[(Long, Long)].collect().sorted.toSeq
        assert(sorted(TokenBlocking.comparisons(a, mode)) ==
          sorted(MetaBlockingReference.comparisons(a, mode)), s"$mode comparisons")
      }
    }
  }

  test("property: edge weights are bit-identical under repartitioning and row order") {
    forAllG(RandomBlocks.genProfiles, n = 5) { input =>
      val a = assignments(input)
      for (mode <- modes; (scheme, useEntropy) <- weightings) {
        val base = edgeMap(edges(a, mode, scheme, useEntropy))
        for (other <- RandomBlocks.layouts(a, input._1.size))
          assert(edgeMap(edges(other, mode, scheme, useEntropy)) == base,
            s"$mode $scheme entropy=$useEntropy")
      }
    }
  }

  test("property: every pruning strategy keeps a subset of the block comparisons") {
    forAllG(RandomBlocks.genProfiles, n = 4) { input =>
      val a = assignments(input)
      for (mode <- modes) {
        val unpruned = pairs(MetaBlockingReference.comparisons(a, mode))
        assert(pairs(edges(a, mode, WeightScheme.CBS, useEntropy = true)) == unpruned)
        (PruningStrategy.NoPruning +: strategies).foreach { s =>
          val kept = pairs(candidates(a, mode, WeightScheme.CBS, useEntropy = true, s))
          assert(kept.subsetOf(unpruned), s"$mode $s")
        }
      }
    }
  }

  test("property: fused candidates equal the pruning functions applied to edges") {
    forAllG(RandomBlocks.genProfiles, n = 3) { input =>
      val a = assignments(input).localCheckpoint()
      for (mode <- modes; (scheme, useEntropy) <- weightings) {
        val e = edges(a, mode, scheme, useEntropy).localCheckpoint()
        val weights = edgeMap(e)
        strategies.foreach { s =>
          assertSameUpToSumOrder(
            pairs(candidates(a, mode, scheme, useEntropy, s)), pairs(reference(e, s)), weights, s,
            s"$mode $scheme entropy=$useEntropy")
        }
      }
    }
  }

  test("property: fused candidates are bit-identical under repartitioning and row order") {
    forAllG(RandomBlocks.genProfiles, n = 3) { input =>
      val a = assignments(input)
      for (mode <- modes; scheme <- Seq(WeightScheme.CBS, WeightScheme.JS); s <- onePerPath) {
        val base = pairs(candidates(a, mode, scheme, useEntropy = true, s))
        for (other <- RandomBlocks.layouts(a, input._1.size))
          assert(pairs(candidates(other, mode, scheme, useEntropy = true, s)) == base,
            s"$mode $scheme $s")
      }
    }
  }

  /** In both modes, for every weighting and strategy, `candidates` over
    * `filtered` equals `candidates` over its valid blocks, pair for pair.
    * Returns whether some block of `filtered` was invalid in some mode.
    */
  private def assertValidBlocksParity(filtered: DataFrame, clue: String): Boolean =
    modes.map { mode =>
      val valid = TokenBlocking.validBlocks(filtered, mode).localCheckpoint()
      for ((scheme, useEntropy) <- weightings; s <- PruningStrategy.NoPruning +: strategies)
        assert(pairs(candidates(filtered, mode, scheme, useEntropy, s)) ==
          pairs(candidates(valid, mode, scheme, useEntropy, s)),
          s"$clue $mode $scheme entropy=$useEntropy $s")
      valid.count() < filtered.count()
    }.contains(true)

  test("property: candidates over filtered assignments equal those over their valid blocks") {
    var sawInvalid = false
    forAllG(RandomBlocks.genProfiles, n = 3) { input =>
      val filtered = BlockFiltering.filter(assignments(input)).localCheckpoint()
      sawInvalid |= assertValidBlocksParity(filtered, "random")
    }
    assert(sawInvalid, "no input had an invalid block")
  }

  test("abtBuy: candidates over filtered assignments equal those over their valid blocks") {
    val ds = ERData.abtBuy(spark, nShared = 60, nOnlyA = 10, nOnlyB = 10)
    val kv = Profiles.toKV(ds.profiles).localCheckpoint()
    val clusters = AttributePartitioner.clustersDF(spark, kv, AttributePartitioner.Params(threshold = 0.3))
    val filtered = BlockFiltering.filter(BlockPurging.purge(
      TokenBlocking.looseSchema(kv, clusters), ds.profiles.count())).localCheckpoint()
    assert(assertValidBlocksParity(filtered, "abtBuy"), "no invalid block")
  }

  test("empty assignments give no edges and no candidates") {
    val a = RandomBlocks.blockings(spark, Seq(Profile(1L, 1, Map("name" -> "sony tv"))),
      Seq("1::name" -> 0)).last.limit(0)
    for (mode <- modes; (scheme, useEntropy) <- weightings) {
      assert(edges(a, mode, scheme, useEntropy).isEmpty, s"$mode $scheme entropy=$useEntropy")
      (PruningStrategy.NoPruning +: strategies).foreach { s =>
        assert(candidates(a, mode, scheme, useEntropy, s).isEmpty, s"$mode $scheme $s")
      }
    }
  }
}
