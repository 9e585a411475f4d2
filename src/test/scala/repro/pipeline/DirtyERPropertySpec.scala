package repro.pipeline

import org.apache.spark.sql.DataFrame
import repro.core.{ERMode, MetaBlockingReference, Profiles, RandomBlocks}
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind}
import repro.lsh.{AttributePartitioner, UnionFind}
import repro.matching.Similarity
import repro.pipeline.SparkERPipeline._
import repro.{Props, SparkSpec}

/** `SparkERPipeline.run` in dirty ER on small random profile sets, with
  * and without meta-blocking and loose schema: every candidate is oriented
  * `p1 < p2` and is a block comparison, every match is a candidate, and the
  * cluster labels are the union-find closure of the matches.
  */
class DirtyERPropertySpec extends SparkSpec with Props {
  import spark.implicits._

  private val configs = Seq(
    SparkERConfig(mode = ERMode.Dirty, schemaMode = SchemaMode.Agnostic,
      pruning = PruningStrategy.NoPruning, matcherScheme = Similarity.Scheme.CosineTF,
      matcherThreshold = 0.3),
    SparkERConfig(mode = ERMode.Dirty, schemaMode = SchemaMode.Agnostic,
      pruning = PruningStrategy.Wnp(), matcherScheme = Similarity.Scheme.NormalizedLevenshtein,
      matcherThreshold = 0.2),
    SparkERConfig(mode = ERMode.Dirty,
      schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
      pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
      matcherThreshold = 0.3))

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.select("p1", "p2").as[(Long, Long)].collect().toSet

  test("property: dirty-ER runs orient, nest and close their pairs") {
    forAllG(RandomBlocks.genProfiles, n = 4) { case (ps, _) =>
      val profiles = Profiles.fromSeq(spark, ps)
      configs.foreach { cfg =>
        val r = SparkERPipeline.run(profiles, cfg)
        val candidates = pairs(r.blocker.candidates)
        val matches = pairs(r.matches)
        assert(candidates.forall { case (a, b) => a < b }, s"${cfg.pruning}: $candidates")
        val comparisons = MetaBlockingReference.comparisons(r.blocker.assignments, ERMode.Dirty)
        assert(candidates.subsetOf(pairs(comparisons)), s"${cfg.pruning}")
        assert(matches.subsetOf(candidates), s"${cfg.pruning}: $matches")

        val uf = new UnionFind[Long]
        ps.foreach(p => uf.find(p.id))
        matches.foreach { case (a, b) => uf.union(a, b) }
        val closure = uf.components.values.flatMap(c => c.map(_ -> c.min)).toMap
        assert(r.clusters.as[(Long, Long)].collect().toMap == closure, s"${cfg.pruning}")
      }
    }
  }
}
