package repro.pipeline

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core._
import repro.core.MetaBlocking.{ThresholdKind, WeightScheme}
import repro.clustering.EntityClusterer
import repro.lsh.AttributePartitioner
import repro.matching.{EntityMatcher, Similarity}

/** End-to-end SparkER pipeline (Fig 3): Blocker → Entity Matcher → Entity
  * Clusterer, each module a black box over DataFrames, with every knob of
  * the demo's supervised mode surfaced in [[SparkERConfig]].
  *
  * Materialisation rule: every stage output that is read more than once
  * downstream is computed exactly once, with an eager `localCheckpoint()`.
  * These are the `candidates` and the `matches`; no schema mode builds the
  * KV table. Loose-schema generation (Loose and Manual schema modes) reads
  * [[Profiles.tokenCounts]], one map over the profiles with no shuffle,
  * whose per-partition `(attrKey, token, count)` rows the driver merges;
  * the LSH step, the closure and the entropies then run on the driver
  * over those counts. The front end (token blocking, purging and
  * filtering) shuffles only block sizes:
  * [[FrontEnd.filtered]] aggregates each profile's distinct blocking keys
  * into block sizes, the driver broadcasts the ranks of the unpurged keys,
  * and a map over the profiles keeps each profile's smallest blocks. That
  * map ends at the block-index read of [[MetaBlocking.candidates]], which
  * collects the filtered assignments once. The sum of the unpurged block
  * sizes bounds their number, so when that sum is within
  * [[MetaBlocking.DriverAssignmentBound]] the read is one job. No
  * assignment row is shuffled and no aggregate is joined back. The blocks
  * that cannot yield a comparison are dropped on the driver, by the block
  * index.
  * The weighted blocking graph is neither checkpointed nor built:
  * [[MetaBlocking.candidates]] prunes inside its node-centric walk over the
  * broadcast block index and emits only the surviving pairs. The matcher
  * works the same way: [[EntityMatcher.scorePairs]] broadcasts one
  * signature per profile and maps the `candidates` checkpoint past it, so
  * scoring shuffles nothing, and its output is checkpointed only after
  * the threshold, as the `matches`. A checkpoint
  * cuts the lineage, so each later query plans one `LogicalRDD` leaf.
  * `cache()` is not used: a cached relation keeps its whole source plan,
  * so every later query re-plans and re-describes the nested tree below
  * it, and the entries stay in the session's cache manager after the call
  * returns. The cost: local checkpoints sit in executor memory and disk,
  * are not fault tolerant (a lost executor loses them, and queries over
  * them fail), and Spark's context cleaner frees them only once no live
  * DataFrame refers to them.
  */
object SparkERPipeline {

  /** Graph pruning strategy for the meta-blocking stage; defined in
    * [[MetaBlocking]], which runs it.
    */
  type PruningStrategy = MetaBlocking.PruningStrategy
  val PruningStrategy: MetaBlocking.PruningStrategy.type = MetaBlocking.PruningStrategy

  /** Attribute-partitioning choice for the blocking keys. */
  sealed trait SchemaMode
  object SchemaMode {
    /** Plain schema-agnostic token blocking (Fig 1b). */
    case object Agnostic extends SchemaMode
    /** LSH-discovered loose schema (Fig 2) with the given params. */
    final case class Loose(params: AttributePartitioner.Params = AttributePartitioner.Params())
        extends SchemaMode
    /** User-edited partitions (the demo's Fig 6c manual intervention). */
    final case class Manual(clusters: Map[String, Int]) extends SchemaMode
  }

  /** Every knob of the pipeline. Out-of-range values are rejected here, at
    * construction, with a message that names the field.
    */
  final case class SparkERConfig(
      mode: ERMode = ERMode.CleanClean,
      minTokenLength: Int = Tokenizer.DefaultMinLength,
      purgeFactor: Double = BlockPurging.DefaultMaxFraction,
      filterRatio: Double = BlockFiltering.DefaultRatio,
      schemaMode: SchemaMode = SchemaMode.Loose(),
      weightScheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = true,
      pruning: PruningStrategy = PruningStrategy.Wnp(),
      matcherScheme: Similarity.Scheme = Similarity.Scheme.JaccardTokens,
      matcherThreshold: Double = 0.5) {
    require(minTokenLength >= 1, s"minTokenLength must be at least 1, got $minTokenLength")
    require(purgeFactor > 0, s"purgeFactor must be positive, got $purgeFactor")
    require(filterRatio > 0 && filterRatio <= 1, s"filterRatio must be in (0, 1], got $filterRatio")
    require(matcherThreshold >= 0 && matcherThreshold <= 1,
      s"matcherThreshold must be in [0, 1], got $matcherThreshold")
    schemaMode match {
      case SchemaMode.Loose(p) =>
        require(p.threshold > 0 && p.threshold <= 1,
          s"Loose threshold must be in (0, 1], got ${p.threshold}")
      case _ =>
    }
    pruning match {
      case PruningStrategy.Cep(k) => require(k > 0, s"Cep k must be positive, got $k")
      case PruningStrategy.Cnp(k) => require(k > 0, s"Cnp k must be positive, got $k")
      case PruningStrategy.Wnp(ThresholdKind.MaxFraction(c), _) =>
        require(c > 0 && c <= 1, s"MaxFraction c must be in (0, 1], got $c")
      case PruningStrategy.Wep(f) => require(f >= 0, s"Wep factor must be non-negative, got $f")
      case _ =>
    }
  }

  /** Blocker output plus the stage counts the demo GUI reports.
    *
    * @param assignments the valid block assignments, as a lazy
    *                    [[TokenBlocking.validBlocks]] view of the filtered
    *                    ones: [[run]] never evaluates it, and each query
    *                    over it re-runs the front end's map over the
    *                    profiles against the broadcast key ranks.
    * @param nProfiles   the number of profiles, from [[Profiles.validate]]
    */
  final case class BlockerResult(
      clusters: Option[DataFrame],
      assignments: DataFrame,
      candidates: DataFrame,
      nProfiles: Long) {

    /** Number of blocks left after purging, filtering and `validBlocks`,
      * counted on first use by re-running the front end's last map:
      * [[run]] does not read it.
      */
    lazy val nBlocks: Long = assignments.select("key").distinct().count()
  }

  final case class PipelineResult(
      blocker: BlockerResult,
      matches: DataFrame,
      clusters: DataFrame)

  /** Blocker (Fig 4): loose schema generation (optional) → token blocking
    * → purging → filtering → meta-blocking → candidate pairs. The input is
    * first checked with [[Profiles.validate]], which also counts it.
    * Loose schema generation reads [[Profiles.tokenCounts]] in one job; the
    * driver holds one row per distinct `(attrKey, token)` per profile
    * partition, a read that no bound checks (README § Scale ceiling).
    * Token blocking, purging and filtering run as [[FrontEnd.filtered]],
    * which fails above [[FrontEnd.DriverKeyBound]] unpurged keys.
    * Every pruning strategy, `NoPruning` included, runs
    * [[MetaBlocking.candidates]] over one broadcast block index of the
    * filtered assignments, which drops the blocks that yield no
    * comparison, so the blocker fails up front above
    * [[MetaBlocking.DriverAssignmentBound]] filtered assignments.
    * `NoPruning` keeps every block comparison in one walk; every other
    * strategy prunes inside a two-pass walk.
    */
  def blocker(profiles: Dataset[Profile], cfg: SparkERConfig): BlockerResult = {
    val spark = profiles.sparkSession
    val totalProfiles = Profiles.validate(profiles, cfg.mode)
    lazy val counts = Profiles.tokenCounts(profiles)
    val clusters = cfg.schemaMode match {
      case SchemaMode.Agnostic => None
      case SchemaMode.Loose(params) => Some(AttributePartitioner.clusterTable(counts, params))
      case SchemaMode.Manual(map) => Some(AttributePartitioner.manualClusterTable(counts, map))
    }
    val (filtered, unpurged) = FrontEnd.filtered(profiles, clusters, cfg.minTokenLength,
      totalProfiles, cfg.purgeFactor, cfg.filterRatio)

    val candidates = MetaBlocking.candidates(
      filtered, unpurged, cfg.mode, cfg.weightScheme, cfg.useEntropy, cfg.pruning)
    BlockerResult(clusters.map(AttributePartitioner.toDF(spark, _)),
      TokenBlocking.validBlocks(filtered, cfg.mode), candidates.localCheckpoint(), totalProfiles)
  }

  /** Full stack: blocker → matcher → clusterer. The matcher fails above
    * [[EntityMatcher.DriverSignatureBound]] profiles, checked against the
    * blocker's profile count, so it reads the signatures in one job.
    */
  def run(profiles: Dataset[Profile], cfg: SparkERConfig): PipelineResult = {
    val b = blocker(profiles, cfg)
    val m = EntityMatcher
      .matches(b.candidates, profiles, b.nProfiles, cfg.matcherScheme, cfg.matcherThreshold)
      .localCheckpoint()
    val c = EntityClusterer.cluster(m, profiles)
    PipelineResult(b, m, c)
  }
}
