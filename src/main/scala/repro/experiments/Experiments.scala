package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.MetaBlocking
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind, WeightScheme}
import repro.data.ERData
import repro.eval.Metrics
import repro.lsh.AttributePartitioner
import repro.matching.Similarity
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline._

/** The four reproduced tables (DESIGN.md §4): each `tableN` runs the
  * experiment and returns its rows, and `renderTN` prints them; jobs/ and
  * bench/ wrap these.
  * The demo paper reports no numeric tables, so the reference points are
  * its §4 narrative claims — recorded beside our measurements in
  * EXPERIMENTS.md.
  */
object Experiments {

  /** The demo's manual edit (Fig 6c): names+manufacturer / descriptions /
    * prices as three hand-made partitions.
    */
  val manualNameDescSplit: Map[String, Int] = Map(
    "1::name" -> 1, "2::name" -> 1, "2::manufacturer" -> 1,
    "1::description" -> 2, "2::description" -> 2,
    "1::price" -> 3, "2::price" -> 3)

  private val loose = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3))

  /** Blast (Fig 6e): loose schema, entropy-weighted CBS, WNP with θ = max/2
    * and the avg rule. T2's last row, T3's blocker and T4's.
    */
  val blast: SparkERConfig = SparkERConfig(
    schemaMode = loose,
    useEntropy = true,
    pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg))

  // ---------------------------------------------------------------- T1

  final case class T1Row(
      config: String,
      nPartitions: Long,
      nBlocks: Long,
      candidates: Long,
      recall: Double,
      precision: Double,
      lost: Long)

  /** The generator seed of every table. */
  private val Seed = 42L

  /** Benchmark inputs are ~100k-row intermediates; 64 reducers is pure
    * scheduling overhead there, so tables 1–3 run with a smaller shuffle
    * fan-out (restored afterwards; T4 sweeps it).
    */
  private def withShufflePartitions[A](spark: SparkSession, n: Int)(f: => A): A = {
    val prev = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", n.toString)
    try f
    finally spark.conf.set("spark.sql.shuffle.partitions", prev)
  }

  /** Fig 6a–d: blocking quality under different attribute partitionings
    * (no meta-blocking; the sweep the demo walks through in the GUI).
    */
  def table1(spark: SparkSession, nShared: Int = 1000): Seq[T1Row] =
    withShufflePartitions(spark, 16) {
      val ds = ERData.abtBuy(spark, nShared, nShared / 10, nShared / 10, Seed)
      table1Configs.map { case (label, cfg) =>
        val b = SparkERPipeline.blocker(ds.profiles, cfg)
        val m = Metrics.evaluatePairs(b.candidates, ds.groundTruth)
        val nParts = b.clusters
          .map(_.select("cluster").distinct().count())
          .getOrElse(1L)
        T1Row(label, nParts, b.nBlocks, m.pairs, m.recall, m.precision, m.lost)
      }
    }

  /** T1's rows: (label, config). */
  val table1Configs: Seq[(String, SparkERConfig)] = Seq(
    "schema-agnostic (LSH t=1.0, all-blob)" ->
      SchemaMode.Loose(AttributePartitioner.Params(threshold = 1.0)),
    "loose schema (LSH t=0.3, auto)" -> loose,
    "manual split: name|description|price" -> SchemaMode.Manual(manualNameDescSplit)
  ).map { case (label, sm) =>
    label -> SparkERConfig(schemaMode = sm, pruning = PruningStrategy.NoPruning)
  }

  // ---------------------------------------------------------------- T2

  final case class T2Row(
      config: String,
      candidates: Long,
      recall: Double,
      precision: Double,
      f1: Double)

  /** Fig 6e + Figs 1c/2c: meta-blocking, with and without loose-schema
    * entropy. Claim under test: meta-blocking sharply cuts candidates;
    * entropy weighting cuts more at preserved recall.
    */
  def table2(spark: SparkSession, nShared: Int = 1000): Seq[T2Row] =
    withShufflePartitions(spark, 16) {
      val ds = ERData.abtBuy(spark, nShared, nShared / 10, nShared / 10, Seed)
      table2Configs.map { case (label, cfg) =>
        val b = SparkERPipeline.blocker(ds.profiles, cfg)
        val m = Metrics.evaluatePairs(b.candidates, ds.groundTruth)
        T2Row(label, m.pairs, m.recall, m.precision, m.f1)
      }
    }

  /** T2's rows: (label, config). */
  val table2Configs: Seq[(String, SparkERConfig)] = Seq(
    "token blocking, no meta-blocking" ->
      SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning),
    "schema-agnostic MB (CBS, WNP avg/or)" ->
      SparkERConfig(schemaMode = SchemaMode.Agnostic, weightScheme = WeightScheme.CBS,
        useEntropy = false, pruning = PruningStrategy.Wnp()),
    "schema-agnostic MB (JS, WNP avg/or)" ->
      SparkERConfig(schemaMode = SchemaMode.Agnostic, weightScheme = WeightScheme.JS,
        useEntropy = false, pruning = PruningStrategy.Wnp()),
    "loose MB, no entropy (CBS, WNP avg/or)" ->
      SparkERConfig(schemaMode = loose, weightScheme = WeightScheme.CBS,
        useEntropy = false, pruning = PruningStrategy.Wnp()),
    "Blast: loose MB + entropy (CBS, WNP max/2 avg)" -> blast)

  // ---------------------------------------------------------------- T3

  final case class T3Row(
      scheme: String,
      threshold: Double,
      matchPairs: Long,
      pairPrecision: Double,
      pairRecall: Double,
      pairF1: Double,
      clusterPrecision: Double,
      clusterRecall: Double,
      clusterF1: Double)

  /** T3's matcher thresholds. */
  val table3Thresholds: Seq[Double] = Seq(0.05, 0.2, 0.35, 0.5, 0.65, 0.8)

  /** §2.2/§3: matcher similarity × threshold sweep over the Blast-blocked
    * candidates, then clustering; end-to-end ER quality.
    */
  def table3(spark: SparkSession, nShared: Int = 1000): Seq[T3Row] =
    withShufflePartitions(spark, 16) {
      val ds = ERData.abtBuy(spark, nShared, nShared / 10, nShared / 10, Seed)
      val b = SparkERPipeline.blocker(ds.profiles, blast)
      val schemes = Seq(
        "jaccard" -> Similarity.Scheme.JaccardTokens,
        "cosine" -> Similarity.Scheme.CosineTF,
        "levenshtein" -> Similarity.Scheme.NormalizedLevenshtein)
      schemes.flatMap { case (name, scheme) =>
        // Score once per scheme; each threshold is then just a filter.
        val scored = repro.matching.EntityMatcher
          .scorePairs(b.candidates, ds.profiles, scheme)
          .cache()
        scored.count()
        val rows = table3Thresholds.map { t =>
          val matches = scored.where(org.apache.spark.sql.functions.col("score") >= t)
          val pm = Metrics.evaluatePairs(matches, ds.groundTruth)
          val clusters = repro.clustering.EntityClusterer.cluster(matches, ds.profiles)
          val cm = Metrics.evaluateClusters(clusters, ds.groundTruth)
          T3Row(name, t, pm.pairs, pm.precision, pm.recall, pm.f1,
            cm.precision, cm.recall, cm.f1)
        }
        scored.unpersist()
        rows
      }
    }

  // ---------------------------------------------------------------- T4

  final case class T4Row(
      variant: String,
      partitions: Int,
      nProfiles: Long,
      candidates: Long,
      millis: Long)

  /** T4's shuffle-partition sweep. */
  val table4PartitionSweep: Seq[Int] = Seq(1, 2, 4, 8, 16)

  /** Scaling: blocker wall-clock vs. parallelism, and meta-blocking alone
    * (`MetaBlocking.candidates`, the fused pass the blocker runs) over the
    * assignments of the sweep's last blocker. The `millis` are one-shot,
    * cold-JIT timings.
    */
  def table4(spark: SparkSession, nShared: Int = 2000): Seq[T4Row] = {
    def timed[A](f: => A): (A, Long) = {
      val t0 = System.nanoTime()
      val a = f
      (a, (System.nanoTime() - t0) / 1000000L)
    }

    val sweep = table4PartitionSweep.map { p =>
      withShufflePartitions(spark, p) {
        val ds = ERData.abtBuy(spark, nShared, nShared / 10, nShared / 10, Seed,
          partitions = p)
        val n = ds.profiles.count()
        // The blocker ends in an eager checkpoint of its candidates.
        val (b, ms) = timed(SparkERPipeline.blocker(ds.profiles, blast))
        (T4Row("full blocker", p, n, b.candidates.count(), ms), b)
      }
    }

    // Meta-blocking alone, over the last blocker's valid assignments. They
    // are a lazy view of the front end, so an eager checkpoint runs it
    // before the timer starts.
    val (last, b) = sweep.last
    val valid = b.assignments.localCheckpoint()
    val (c, ms) = timed {
      MetaBlocking
        .candidates(valid, blast.mode, blast.weightScheme, blast.useEntropy, blast.pruning)
        .count()
    }
    sweep.map(_._1) :+ T4Row("meta-blocking only", 0, last.nProfiles, c, ms)
  }

  // ---------------------------------------------------------- formatting

  /** Each table as its job prints it and its bench suite logs it. */
  def renderT1(rows: Seq[T1Row]): String =
    render(Seq("config", "partitions", "blocks", "candidates", "recall", "precision", "lostGT"), rows)
  def renderT2(rows: Seq[T2Row]): String =
    render(Seq("config", "candidates", "recall", "precision", "f1"), rows)
  def renderT3(rows: Seq[T3Row]): String =
    render(Seq("scheme", "thr", "matches", "pairP", "pairR", "pairF1", "clP", "clR", "clF1"), rows)
  def renderT4(rows: Seq[T4Row]): String =
    render(Seq("variant", "partitions", "profiles", "candidates", "millis"), rows)

  /** One column per row field, in field order; a `Double` has 4 decimals. */
  private def render(header: Seq[String], rows: Seq[Product]): String = {
    val cells = rows.map(_.productIterator.map {
      case d: Double => f"$d%.4f"
      case x => x.toString
    }.toSeq)
    val all = header +: cells
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: cells.map(line)).mkString("\n")
  }
}
