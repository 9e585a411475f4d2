package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, Dataset}
import repro.clustering.EntityClusterer
import repro.core._
import repro.lsh.{AttributePartitioner, Entropy}
import repro.matching.EntityMatcher
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}

import scala.collection.mutable.ArrayBuffer

/** One traced layer call: wall time, output rows and the Spark work its
  * jobs did.
  */
final case class Span(name: String, seconds: Double, rowsOut: Long, stats: GroupStats)

/** Times each layer call as a span. Every span runs under its own Spark job
  * group, so [[GroupListener]] attributes the span's jobs and tasks to it,
  * and materialises its output inside the span, so the span's time is the
  * layer's work and not that of a later consumer.
  *
  * DataFrame outputs are local checkpoints rather than caches: a cached
  * relation carries its whole source plan, so each later span would plan
  * and print every earlier one again, and spans late in the pipeline would
  * be charged for their depth.
  */
final class Tracer(sc: SparkContext, listener: GroupListener) {
  val spans = ArrayBuffer.empty[Span]

  /** Run `body` as span `name`; `rows` counts its output inside the span. */
  def value[A](name: String)(body: => A)(rows: A => Long): A = {
    val group = s"trace:$name"
    sc.setJobGroup(group, name)
    val t0 = System.nanoTime()
    val (a, n) = try { val a = body; (a, rows(a)) } finally sc.clearJobGroup()
    val secs = (System.nanoTime() - t0) / 1e9
    spans += Span(name, secs, n, listener.stats(sc, group))
    a
  }

  /** A DataFrame-valued span, checkpointed and counted inside the span. */
  def df(name: String)(body: => DataFrame): DataFrame =
    value(name)(body.localCheckpoint())(_.count())
}

/** The pipeline replayed layer by layer, in the order and with the
  * arguments of `SparkERPipeline.blocker` and `SparkERPipeline.run`, calling
  * each layer's public function. The benchmark compares the replay's
  * outputs with those of `run`, so a drift between the two fails the run.
  */
object Replay {

  /** Span names in pipeline order; a workload runs a subset of them. */
  val SpanNames: Seq[String] = Seq(
    "profile.to_kv", "lsh.token_sets", "lsh.partition", "lsh.entropy",
    "blocking.tokens", "blocking.purge", "blocking.filter", "blocking.valid",
    "blocking.comparisons", "metablocking.edges", "metablocking.prune",
    "matcher.score", "clusterer.cc")

  /** @return (candidates, matches, clusters) of the replay */
  def run(profiles: Dataset[Profile], cfg: SparkERConfig, t: Tracer): (DataFrame, DataFrame, DataFrame) = {
    val spark = profiles.sparkSession
    import spark.implicits._
    val kv = t.df("profile.to_kv")(Profiles.toKV(profiles))

    val raw = cfg.schemaMode match {
      case SchemaMode.Agnostic =>
        t.df("blocking.tokens")(TokenBlocking.schemaAgnostic(kv, cfg.minTokenLength))
      case SchemaMode.Loose(params) =>
        // AttributePartitioner.clustersDF, one layer call per span.
        val sets = t.value("lsh.token_sets")(AttributePartitioner.attributeTokenSets(kv))(
          _.values.map(_.size.toLong).sum)
        val parts = t.value("lsh.partition")(AttributePartitioner.partition(sets, params))(
          _.size.toLong)
        val ent = t.value("lsh.entropy")(Entropy.clusterEntropies(kv, parts))(_.size.toLong)
        val clusters = parts.toSeq
          .map { case (attrKey, c) => (attrKey, c, ent.getOrElse(c, 1.0)) }
          .toDF("attrKey", "cluster", "entropy")
        t.df("blocking.tokens")(TokenBlocking.looseSchema(kv, clusters, cfg.minTokenLength))
      case other =>
        sys.error(s"the replay does not cover schema mode $other")
    }

    val purged = t.df("blocking.purge")(
      BlockPurging.purge(raw, profiles.count(), cfg.purgeFactor))
    val filtered = t.df("blocking.filter")(BlockFiltering.filter(purged, cfg.filterRatio))
    val assignments = t.value("blocking.valid") {
      val a = TokenBlocking.validBlocks(filtered, cfg.mode).localCheckpoint()
      a.select("key").distinct().count() // the pipeline's nBlocks
      a
    }(_.count())

    val candidates = cfg.pruning match {
      case PruningStrategy.NoPruning =>
        t.df("blocking.comparisons")(TokenBlocking.comparisons(assignments, cfg.mode))
      case p =>
        val edges = t.df("metablocking.edges")(
          MetaBlocking.edges(assignments, cfg.mode, cfg.weightScheme, cfg.useEntropy))
        t.df("metablocking.prune")((p match {
          case PruningStrategy.Wep(f) => MetaBlocking.wep(edges, f)
          case PruningStrategy.Wnp(kind, combine) => MetaBlocking.wnp(edges, kind, combine)
          case PruningStrategy.Cep(k) => MetaBlocking.cep(edges, k)
          case PruningStrategy.Cnp(k) => MetaBlocking.cnp(edges, k)
          case PruningStrategy.NoPruning => edges // unreachable
        }).select("p1", "p2"))
    }
    val matches = t.df("matcher.score")(
      EntityMatcher.matches(candidates, profiles, cfg.matcherScheme, cfg.matcherThreshold))
    val clusters = t.df("clusterer.cc")(EntityClusterer.cluster(matches, profiles))
    (candidates, matches, clusters)
  }
}
