package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Meta-blocking (§1, §2.1; Figs 1c and 2c).
  *
  * Profiles are nodes, co-occurrence in a block is an edge; edges are
  * weighted and the graph is pruned, the survivors being the candidate
  * pairs. [[edges]] builds the weighted graph with the paper's broadcast,
  * node-centric scheme; the pruning functions are DataFrame queries over
  * its output.
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

  /** Most assignments [[edges]] reads to the driver. Measured at the bound
    * on a 64-bit JVM (JDK 17), with 77k profiles of 13 blocks each: the
    * collected rows and the block index built from them hold 150 MB of
    * driver heap over 20k blocks, 163 MB over 200k blocks, and 221 MB when
    * every assignment is a block of its own (the worst case). A whole
    * `edges` call at the bound ran in a 1 GB driver heap.
    */
  val DriverAssignmentBound = 1000000

  /** The `(key, pid, source, entropy)` rows of `assignments`, read to the
    * driver with `limit`, so at most `bound + 1` arrive. More than `bound`
    * fails, with the count in the message.
    */
  private[core] def boundedIndexRows(
      assignments: DataFrame,
      bound: Int): Array[(String, Long, Int, Double)] = {
    import assignments.sparkSession.implicits._
    val rows = assignments
      .select(col("key"), col("pid"), col("source"), col("entropy"))
      .as[(String, Long, Int, Double)]
      .limit(bound + 1)
      .collect()
    require(rows.length <= bound,
      s"meta-blocking broadcasts the block index, which holds at most $bound assignments; " +
        s"these blocks hold ${assignments.count()}")
    rows
  }

  /** What every partition of [[edges]] reads. Blocks are numbered `0..B-1`
    * in key order. `partners(b)` are the members of block `b` that an
    * emitting profile pairs with, ascending: the members from sources other
    * than 1 in clean-clean ER, all members in dirty ER. `blocksOf(p)` are
    * profile `p`'s block ids, ascending; their count is its `nb` for JS.
    */
  private final case class BlockIndex(
      partners: Array[Array[Long]],
      entropy: Array[Double],
      blocksOf: Map[Long, Array[Int]])

  /** Build the weighted blocking graph from block assignments, the way the
    * paper parallelises meta-blocking (§2.1): the block index is broadcast
    * to every partition, and each partition materialises the neighbourhood
    * of one node at a time.
    *
    * The driver reads the assignments (at most [[DriverAssignmentBound]];
    * more fails), numbers the blocks and broadcasts the [[BlockIndex]].
    * The emitting profiles — those of source 1 in clean-clean ER, all in
    * dirty ER — are parallelised; each sums, per neighbour, the common
    * blocks and their entropies, reading its blocks in ascending id order,
    * so every weight is bit-identical whatever the input's partitioning.
    *
    * Output: (p1, p2, weight) with p1 from source 1 in clean-clean ER
    * (p1 < p2 in dirty ER), distributed; edges are not collected. With
    * `useEntropy` (Fig 2c): CBS becomes Σ entropy over common blocks; JS is
    * multiplied by the mean entropy of the common blocks.
    */
  def edges(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false): DataFrame = {
    val spark = assignments.sparkSession
    import spark.implicits._
    val dirty = mode == ERMode.Dirty
    val rows = boundedIndexRows(assignments, DriverAssignmentBound)

    val keys = rows.map(_._1).distinct.sorted
    val blockOf = keys.iterator.zipWithIndex.toMap
    val entropy = new Array[Double](keys.length)
    rows.foreach { case (k, _, _, e) => entropy(blockOf(k)) = e }
    val partners = Array.fill(keys.length)(Array.emptyLongArray)
    rows.filter(r => dirty || r._3 != 1).groupMap(r => blockOf(r._1))(_._2)
      .foreach { case (b, ps) => partners(b) = ps.sorted }
    val blocksOf = rows.groupMap(_._2)(r => blockOf(r._1)).map { case (p, bs) => p -> bs.sorted }
    val emitting = rows.collect { case (_, p, s, _) if dirty || s == 1 => p }.distinct.sorted
    val index = spark.sparkContext.broadcast(BlockIndex(partners, entropy, blocksOf))

    spark.sparkContext.parallelize(emitting.toSeq)
      .mapPartitions { pids =>
        val BlockIndex(partners, entropy, blocksOf) = index.value
        pids.flatMap { p =>
          val nbrs = mutable.LongMap.empty[Neighbour]
          blocksOf(p).foreach { b =>
            partners(b).foreach { q =>
              if (!dirty || q > p) {
                val n = nbrs.getOrElseUpdate(q, new Neighbour)
                n.cbs += 1
                n.entSum += entropy(b)
              }
            }
          }
          nbrs.iterator.map { case (q, n) =>
            val w = scheme match {
              case WeightScheme.CBS => if (useEntropy) n.entSum else n.cbs.toDouble
              case WeightScheme.JS =>
                val js = n.cbs.toDouble / (blocksOf(p).length + blocksOf(q).length - n.cbs)
                if (useEntropy) js * n.entSum / n.cbs else js
            }
            (p, q, w)
          }
        }
      }
      .toDF("p1", "p2", "weight")
  }

  /** One neighbour's common blocks and the sum of their entropies. */
  private final class Neighbour {
    var cbs = 0
    var entSum = 0.0
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
