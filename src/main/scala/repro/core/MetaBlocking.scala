package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Meta-blocking (§1, §2.1; Figs 1c and 2c).
  *
  * Profiles are nodes, co-occurrence in a block is an edge; edges are
  * weighted and the graph is pruned, the survivors being the candidate
  * pairs. This is the DataFrame implementation (Catalyst plans the joins
  * and aggregations); [[BroadcastMetaBlocking]] is the paper's explicit
  * broadcast-join-style parallelization, kept for the scaling experiment
  * and tested for parity with this one.
  */
object MetaBlocking {

  /** Edge weighting scheme. */
  sealed trait WeightScheme
  object WeightScheme {
    /** Common Blocks Scheme: number of blocks the two profiles share. */
    case object CBS extends WeightScheme
    /** Jaccard of the two profiles' block lists. */
    case object JS extends WeightScheme
  }

  /** Per-node threshold (Blast vs. classic meta-blocking). */
  sealed trait ThresholdKind
  object ThresholdKind {
    /** θ(u) = mean weight of u's edges — the demo's Fig 1c rule. */
    case object AvgWeight extends ThresholdKind
    /** θ(u) = c · max weight of u's edges — Blast uses c = 0.5. */
    final case class MaxFraction(c: Double) extends ThresholdKind
  }

  /** How the two endpoint thresholds decide an edge's fate. */
  sealed trait NodeCombine
  object NodeCombine {
    /** Keep if either endpoint retains it (classic redefined WNP). */
    case object Or extends NodeCombine
    /** Keep if both endpoints retain it. */
    case object And extends NodeCombine
    /** Keep if w ≥ (θ(u)+θ(v))/2 — Blast's rule. */
    case object Avg extends NodeCombine
  }

  /** Build the weighted blocking graph from block assignments.
    *
    * Output: (p1, p2, weight) with p1 from source 1 in clean-clean ER
    * (p1 < p2 in dirty ER). With `useEntropy` (Fig 2c): CBS becomes
    * Σ entropy over common blocks; JS is multiplied by the mean entropy
    * of the common blocks.
    */
  def edges(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false): DataFrame = {
    val pairs = TokenBlocking
      .blockPairs(assignments, mode)
      .groupBy("p1", "p2")
      .agg(count(lit(1)) as "cbs", sum("entropy") as "entSum")

    val weighted = scheme match {
      case WeightScheme.CBS =>
        val w = if (useEntropy) col("entSum") else col("cbs").cast("double")
        pairs.withColumn("weight", w)
      case WeightScheme.JS =>
        val nb = assignments.groupBy("pid").agg(count(lit(1)) as "nb")
        val js = col("cbs") / (col("nb1") + col("nb2") - col("cbs"))
        pairs
          .join(nb.withColumnRenamed("pid", "p1").withColumnRenamed("nb", "nb1"), "p1")
          .join(nb.withColumnRenamed("pid", "p2").withColumnRenamed("nb", "nb2"), "p2")
          .withColumn(
            "weight",
            if (useEntropy) js * col("entSum") / col("cbs") else js)
    }
    weighted.select(col("p1"), col("p2"), col("weight").cast("double"))
  }

  /** Weighted Edge Pruning: keep edges with weight ≥ factor · global mean.
    * An empty edge set has no mean (`avg` is NULL) and yields no edges.
    */
  def wep(edges: DataFrame, factor: Double = 1.0): DataFrame = {
    val mean = edges.agg(avg("weight")).first()
    if (mean.isNullAt(0)) edges.limit(0)
    else edges.where(col("weight") >= lit(factor * mean.getDouble(0)))
  }

  /** Per-node thresholds over the edge list: (node, theta). */
  def nodeThresholds(edges: DataFrame, kind: ThresholdKind): DataFrame = {
    val incid = edges.select(col("p1") as "node", col("weight"))
      .unionAll(edges.select(col("p2") as "node", col("weight")))
    kind match {
      case ThresholdKind.AvgWeight =>
        incid.groupBy("node").agg(avg("weight") as "theta")
      case ThresholdKind.MaxFraction(c) =>
        incid.groupBy("node").agg((max("weight") * c) as "theta")
    }
  }

  /** Weighted Node Pruning: each node retains edges meeting its local
    * threshold; `combine` decides how the two endpoints' verdicts merge.
    * The demo's Fig 1c uses (AvgWeight, Or); Blast (Fig 2c) uses
    * (MaxFraction(0.5), Avg).
    */
  def wnp(
      edges: DataFrame,
      kind: ThresholdKind = ThresholdKind.AvgWeight,
      combine: NodeCombine = NodeCombine.Or): DataFrame = {
    val th = nodeThresholds(edges, kind)
    val e = edges
      .join(th.select(col("node") as "p1", col("theta") as "t1"), "p1")
      .join(th.select(col("node") as "p2", col("theta") as "t2"), "p2")
    val keep = combine match {
      case NodeCombine.Or => col("weight") >= col("t1") || col("weight") >= col("t2")
      case NodeCombine.And => col("weight") >= col("t1") && col("weight") >= col("t2")
      case NodeCombine.Avg => col("weight") >= (col("t1") + col("t2")) / 2
    }
    e.where(keep).select("p1", "p2", "weight")
  }

  /** Cardinality Edge Pruning: keep the globally top-k edges. */
  def cep(edges: DataFrame, k: Long): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    val w = Window.orderBy(col("weight").desc, col("p1").asc, col("p2").asc)
    edges.withColumn("rnk", row_number().over(w)).where(col("rnk") <= k).drop("rnk")
  }

  /** Cardinality Node Pruning: each node retains its top-k edges; an edge
    * survives if either endpoint retains it.
    */
  def cnp(edges: DataFrame, k: Int): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    val incid = edges
      .select(col("p1") as "node", col("p1"), col("p2"), col("weight"))
      .unionAll(edges.select(col("p2") as "node", col("p1"), col("p2"), col("weight")))
    val byNode = Window.partitionBy("node")
      .orderBy(col("weight").desc, col("p1").asc, col("p2").asc)
    incid
      .withColumn("rnk", row_number().over(byNode))
      .where(col("rnk") <= k)
      .select("p1", "p2", "weight")
      .distinct()
  }
}
