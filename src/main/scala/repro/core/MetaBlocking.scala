package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

/** Meta-blocking (§1, §2.1; Figs 1c and 2c).
  *
  * Profiles are nodes, co-occurrence in a block is an edge; edges are
  * weighted and the graph is pruned, the survivors being the candidate
  * pairs. The graph is never built: both [[edges]] and [[candidates]] walk
  * it the way the paper parallelises meta-blocking, node by node over a
  * broadcast block index, each node's neighbourhood built, used and
  * dropped. [[candidates]] prunes inside that walk, in two passes: pass 1
  * derives the thresholds of the pruning rule, pass 2 walks again and
  * emits the surviving pairs. `NoPruning` is one walk that keeps every
  * edge, so this walk is the only candidate generator.
  *
  * Both accept any assignments that are distinct per `(key, pid)`: the
  * index skips the blocks that cannot yield a comparison, so the blocker
  * passes the filtered assignments of [[FrontEnd.filtered]] straight in
  * and runs no valid-block stage in Spark.
  *
  * [[wep]], [[wnp]], [[cep]] and [[cnp]] prune a weighted edge DataFrame
  * with Spark aggregates and joins. The pipeline does not run them: they
  * are the reference that [[candidates]] is tested against, and the
  * traced benchmark replays them over [[edges]].
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

  /** Graph pruning strategy: which edges of the blocking graph become
    * candidate pairs.
    */
  sealed trait PruningStrategy
  object PruningStrategy {
    /** No meta-blocking: all block-derived comparisons survive. */
    case object NoPruning extends PruningStrategy
    final case class Wep(factor: Double = 1.0) extends PruningStrategy
    final case class Wnp(
        kind: ThresholdKind = ThresholdKind.AvgWeight,
        combine: NodeCombine = NodeCombine.Or) extends PruningStrategy
    final case class Cep(k: Long) extends PruningStrategy
    final case class Cnp(k: Int) extends PruningStrategy
  }

  /** Most assignments a walk reads to the driver, counted before the index
    * drops the blocks that yield no comparison. Measured at the bound
    * on a 64-bit JVM (JDK 17), with 77k profiles of 13 blocks each: the
    * collected rows and the block index built from them hold 144 MB of
    * driver heap over 20k blocks, 147 MB over 200k blocks, and 154 MB when
    * every assignment is a block of its own (the worst case); the index
    * alone is 10–20 MB. A whole Blast-WNP [[candidates]] call at the bound
    * (20k blocks, 1.2M candidates) ran in a 1 GB heap in local mode.
    */
  val DriverAssignmentBound = 1000000

  /** The `(key, pid, source, entropy)` rows of `assignments`, read to the
    * driver. More than `bound` fails, with the count in the message. When
    * the caller knows that at most `atMost <= bound` rows are there, the
    * read is one `collect()`, one job. Otherwise it is read with `limit`,
    * so at most `bound + 1` arrive, and Spark runs the limit as an
    * incremental take: one job for the first partition, more for the rest.
    */
  private[core] def boundedIndexRows(
      assignments: DataFrame,
      bound: Int,
      atMost: Long = Long.MaxValue): Array[(String, Long, Int, Double)] = {
    import assignments.sparkSession.implicits._
    val all = assignments
      .select(col("key"), col("pid"), col("source"), col("entropy"))
      .as[(String, Long, Int, Double)]
    val rows = if (atMost <= bound) all.collect() else all.limit(bound + 1).collect()
    require(rows.length <= bound,
      s"meta-blocking broadcasts the block index, which holds at most $bound assignments; " +
        s"these blocks hold ${assignments.count()}")
    rows
  }

  /** What every walk reads, over dense ids. It holds only the blocks that
    * can yield a comparison, by the rule of [[TokenBlocking.validBlocks]]
    * (clean-clean ER: a member on each side; dirty ER: two members), and
    * only the profiles in them: the other blocks are dropped from the
    * driver's rows before anything is numbered, so a walk over any
    * assignments equals the walk over their valid blocks, `nb` included.
    * Profiles are numbered `0..P-1`:
    * in clean-clean ER those of source 1 first, then the others, each side
    * in id order; in dirty ER all in id order. Either way an edge's `p1`
    * has the lower dense id, and dense order within the profiles a node can
    * pair with is id order. `n1` counts the profiles that pair with
    * higher ids: source 1 in clean-clean ER, all in dirty ER. Blocks are
    * numbered `0..B-1` in key order.
    *
    * Two CSR arrays: block `b`'s members are
    * `members(memberStart(b) until memberStart(b + 1))`, ascending, and
    * those from `split(b)` on have ids of at least `n1` (in dirty ER,
    * `split(b) = memberStart(b)`); profile `u`'s blocks are
    * `blocks(blockStart(u) until blockStart(u + 1))`, ascending, and their
    * count is its `nb` for JS.
    */
  private final class BlockIndex(
      val pids: Array[Long],
      val n1: Int,
      val entropy: Array[Double],
      val memberStart: Array[Int],
      val split: Array[Int],
      val members: Array[Int],
      val blockStart: Array[Int],
      val blocks: Array[Int],
      val scheme: WeightScheme,
      val useEntropy: Boolean) extends Serializable {

    def nb(u: Int): Int = blockStart(u + 1) - blockStart(u)

    /** The weight of edge `(u, q)` from its common-block count and the sum
      * of their entropies; symmetric in `u` and `q`.
      */
    def weight(u: Int, q: Int, cbs: Int, entSum: Double): Double = scheme match {
      case WeightScheme.CBS => if (useEntropy) entSum else cbs.toDouble
      case WeightScheme.JS =>
        val js = cbs.toDouble / (nb(u) + nb(q) - cbs)
        if (useEntropy) js * entSum / cbs else js
    }
  }

  private object BlockIndex {
    def apply(
        assignments: Array[(String, Long, Int, Double)],
        mode: ERMode,
        scheme: WeightScheme,
        useEntropy: Boolean): BlockIndex = {
      val dirty = mode == ERMode.Dirty
      // TokenBlocking.validBlocks' rule, applied before anything is numbered.
      val sides = assignments.groupMapReduce(_._1)(r => if (r._3 == 1) (1, 0) else (0, 1)) {
        case ((a1, b1), (a2, b2)) => (a1 + a2, b1 + b2)
      }
      val rows = assignments.filter { r =>
        val (nA, nB) = sides(r._1)
        if (dirty) nA + nB >= 2 else nA > 0 && nB > 0
      }
      val sided = rows.map(r => (if (dirty || r._3 == 1) 0 else 1, r._2)).distinct.sorted
      val pids = sided.map(_._2)
      val n1 = sided.count(_._1 == 0)
      val idOf = mutable.LongMap.from(pids.iterator.zipWithIndex)
      val keys = rows.map(_._1).distinct.sorted
      val blockOf = keys.iterator.zipWithIndex.toMap
      val entropy = new Array[Double](keys.length)
      val b = rows.map(r => blockOf(r._1))
      val u = rows.map(r => idOf(r._2))
      rows.indices.foreach(i => entropy(b(i)) = rows(i)._4)
      val (memberStart, members) = csr(keys.length, b, u)
      val (blockStart, blocks) = csr(pids.length, u, b)
      val split = Array.tabulate(keys.length) { blk =>
        var i = memberStart(blk)
        if (!dirty) while (i < memberStart(blk + 1) && members(i) < n1) i += 1
        i
      }
      new BlockIndex(pids, n1, entropy, memberStart, split, members, blockStart, blocks,
        scheme, useEntropy)
    }

    /** Row `r` of the result holds the `value`s paired with `r` in `row`,
      * ascending.
      */
    private def csr(nRows: Int, row: Array[Int], value: Array[Int]): (Array[Int], Array[Int]) = {
      val start = new Array[Int](nRows + 1)
      row.foreach(r => start(r + 1) += 1)
      (0 until nRows).foreach(r => start(r + 1) += start(r))
      val next = start.clone()
      val values = new Array[Int](row.length)
      row.indices.foreach { i =>
        values(next(row(i))) = value(i)
        next(row(i)) += 1
      }
      (0 until nRows).foreach(r => java.util.Arrays.sort(values, start(r), start(r + 1)))
      (start, values)
    }
  }

  /** One task's scratch space for neighbourhood walks, reused for every
    * node the task walks: a common-block count and an entropy sum per
    * profile, and the neighbours the current walk touched.
    */
  private final class Walker(ix: BlockIndex) {
    private val cbs = new Array[Int](ix.pids.length)
    private val entSum = new Array[Double](ix.pids.length)
    /** After `walk` returned `n`, `nbr(i)` and `weight(i)`, `i < n`, are
      * the walked node's neighbours and edge weights.
      */
    val nbr = new Array[Int](ix.pids.length)
    val weight = new Array[Double](ix.pids.length)

    /** Builds `u`'s neighbourhood (with `upper`, only the neighbours above
      * `u`) and returns its size. Each neighbour's common blocks are summed
      * in ascending block order, so both endpoints of an edge compute
      * bit-identical weights.
      */
    def walk(u: Int, upper: Boolean): Int = {
      var n = 0
      val other = u >= ix.n1
      var i = ix.blockStart(u)
      while (i < ix.blockStart(u + 1)) {
        val b = ix.blocks(i)
        var j = if (other) ix.memberStart(b) else ix.split(b)
        val end = if (other) ix.split(b) else ix.memberStart(b + 1)
        while (j < end) {
          val q = ix.members(j)
          if (q > u || (!upper && q != u)) {
            if (cbs(q) == 0) { nbr(n) = q; n += 1 }
            cbs(q) += 1
            entSum(q) += ix.entropy(b)
          }
          j += 1
        }
        i += 1
      }
      var t = 0
      while (t < n) {
        val q = nbr(t)
        weight(t) = ix.weight(u, q, cbs(q), entSum(q))
        cbs(q) = 0
        entSum(q) = 0.0
        t += 1
      }
      n
    }
  }

  /** Reads the assignments (at most [[DriverAssignmentBound]]; more fails),
    * builds the [[BlockIndex]] of their valid blocks on the driver and
    * broadcasts it.
    */
  private def broadcastIndex(
      assignments: DataFrame,
      atMost: Long,
      mode: ERMode,
      scheme: WeightScheme,
      useEntropy: Boolean): Broadcast[BlockIndex] =
    assignments.sparkSession.sparkContext.broadcast(BlockIndex(
      boundedIndexRows(assignments, DriverAssignmentBound, atMost), mode, scheme, useEntropy))

  /** `f` over the nodes `0 until n`, in parallel, with one [[Walker]] per
    * task; the nodes of a task are contiguous and ascending.
    */
  private def walkNodes[A: ClassTag](sc: SparkContext, g: Broadcast[BlockIndex], n: Int)(
      f: (Walker, Iterator[Int]) => Iterator[A]): RDD[A] =
    sc.parallelize(0 until n).mapPartitions(us => f(new Walker(g.value), us))

  /** Pass 1: `f(walker, u)` for every node `u < n`, returned to the driver
    * in node order.
    */
  private def perNode[A: ClassTag](sc: SparkContext, g: Broadcast[BlockIndex], n: Int)(
      f: (Walker, Int) => A): Array[A] =
    walkNodes(sc, g, n)((w, us) => us.map(f(w, _))).collect()

  /** Whether pass 2 keeps edge `(u, q)`, `u < q`, of weight `w`. A trait
    * rather than a `Function3`, whose `apply` would box every edge's
    * arguments.
    */
  private trait EdgeRule {
    def keeps(u: Int, q: Int, w: Double): Boolean
  }

  /** Pass 2: the edges that `newRule()` keeps, each once as
    * `(p1, p2, weight)`, walked from `p1`'s side. Each task makes its rule
    * once, so a rule reads its broadcast thresholds once per task and not
    * per edge (`Broadcast.value` is synchronized).
    */
  private def kept(sc: SparkContext, g: Broadcast[BlockIndex])(
      newRule: () => EdgeRule): RDD[(Long, Long, Double)] =
    walkNodes(sc, g, g.value.n1) { (w, us) =>
      val pids = g.value.pids
      val rule = newRule()
      us.flatMap { u =>
        val out = mutable.ArrayBuffer.empty[(Long, Long, Double)]
        val n = w.walk(u, upper = true)
        var i = 0
        while (i < n) {
          if (rule.keeps(u, w.nbr(i), w.weight(i))) out += ((pids(u), pids(w.nbr(i)), w.weight(i)))
          i += 1
        }
        out
      }
    }

  /** `(weight, key)` pairs, best first: higher weight, then lower key. */
  private val bestFirst: Ordering[(Double, Long)] = (a, b) =>
    if (a._1 != b._1) java.lang.Double.compare(b._1, a._1) else java.lang.Long.compare(a._2, b._2)

  /** The `k` best `(weight, key)` pairs offered; the head is the worst of
    * them.
    */
  private final class TopK(k: Long) {
    val heap = new java.util.PriorityQueue[(Double, Long)](bestFirst.reverse)

    def offer(w: Double, key: Long): Unit =
      if (heap.size < k) heap.add((w, key))
      else if (bestFirst.lt((w, key), heap.peek)) { heap.poll(); heap.add((w, key)) }
  }

  /** The weighted blocking graph of the assignments, as the walk emits it
    * from the emitting profiles (source 1 in clean-clean ER, all in dirty
    * ER), each summing its common blocks in ascending order, so every
    * weight is bit-identical whatever the input's partitioning. Output:
    * `(p1, p2, weight)`, p1 from source 1 in clean-clean ER (p1 < p2 in
    * dirty ER), distributed. With `useEntropy` (Fig 2c): CBS becomes
    * Σ entropy over common blocks; JS is multiplied by their mean entropy.
    */
  def edges(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false): DataFrame = {
    val spark = assignments.sparkSession
    import spark.implicits._
    val g = broadcastIndex(assignments, Long.MaxValue, mode, scheme, useEntropy)
    kept(spark.sparkContext, g)(() => (_, _, _) => true).toDF("p1", "p2", "weight")
  }

  /** The candidate pairs `(p1, p2)` that `pruning` keeps of the graph
    * [[edges]] would build, oriented as there, each once, without building
    * it. Every strategy reads one broadcast index, so every strategy fails
    * above [[DriverAssignmentBound]] assignments. `NoPruning` makes one
    * walk and keeps every edge. Every other strategy makes two walks, and
    * pass 1 sends the driver:
    *  - WEP: one weight sum and edge count per emitting profile, added
    *    up in profile order into the global mean;
    *  - WNP: each profile's threshold (mean or `c`·max of its own
    *    neighbourhood, 8 bytes per profile), broadcast for pass 2;
    *  - CNP: each profile's k-th best edge key `(weight desc, neighbour)`,
    *    12 bytes per profile, broadcast for pass 2;
    *  - CEP: each partition's top k edges, at most k·partitions rows,
    *    merged on the driver into the result, with no pass 2.
    * Pass 2 walks the emitting profiles again and keeps each edge that
    * meets the rule. A node sums its weights in the order its walk meets
    * its neighbours, which depends on the index only, so the candidates
    * are the same for any partitioning of `assignments`.
    * They equal the reference functions over [[edges]], up to the order
    * in which Spark's `avg` adds the weights for WEP and `AvgWeight`.
    */
  def candidates(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme,
      useEntropy: Boolean,
      pruning: PruningStrategy): DataFrame =
    candidates(assignments, Long.MaxValue, mode, scheme, useEntropy, pruning)

  /** [[candidates]] of assignments known to be at most `atMost` rows, which
    * are read in one job when `atMost` is within [[DriverAssignmentBound]].
    */
  private[repro] def candidates(
      assignments: DataFrame,
      atMost: Long,
      mode: ERMode,
      scheme: WeightScheme,
      useEntropy: Boolean,
      pruning: PruningStrategy): DataFrame = {
    val spark = assignments.sparkSession
    import spark.implicits._
    val sc = spark.sparkContext
    val g = broadcastIndex(assignments, atMost, mode, scheme, useEntropy)
    def pairs(rdd: RDD[(Long, Long, Double)]) = rdd.map(e => (e._1, e._2)).toDF("p1", "p2")

    pruning match {
      case PruningStrategy.NoPruning => pairs(kept(sc, g)(() => (_, _, _) => true))

      case PruningStrategy.Wep(factor) =>
        val sums = perNode(sc, g, g.value.n1) { (w, u) =>
          val n = w.walk(u, upper = true)
          var s = 0.0
          (0 until n).foreach(i => s += w.weight(i))
          (s, n)
        }
        val count = sums.iterator.map(_._2.toLong).sum
        if (count == 0) Seq.empty[(Long, Long)].toDF("p1", "p2")
        else {
          var total = 0.0
          sums.foreach(total += _._1)
          val theta = factor * (total / count)
          pairs(kept(sc, g)(() => (_, _, wt) => wt >= theta))
        }

      case PruningStrategy.Wnp(kind, combine) =>
        val theta = sc.broadcast(perNode(sc, g, g.value.pids.length) { (w, u) =>
          val n = w.walk(u, upper = false)
          var s = 0.0
          var max = Double.NegativeInfinity
          (0 until n).foreach { i =>
            s += w.weight(i)
            max = math.max(max, w.weight(i))
          }
          kind match {
            case ThresholdKind.AvgWeight => s / n
            case ThresholdKind.MaxFraction(c) => max * c
          }
        })
        pairs(kept(sc, g) { () =>
          val t = theta.value
          (u, q, wt) => combine match {
            case NodeCombine.Or => wt >= t(u) || wt >= t(q)
            case NodeCombine.And => wt >= t(u) && wt >= t(q)
            case NodeCombine.Avg => wt >= (t(u) + t(q)) / 2
          }
        })

      case PruningStrategy.Cnp(k) =>
        require(k > 0, s"k must be positive, got $k")
        // Within a node's edges, (weight desc, p1, p2) orders as
        // (weight desc, neighbour); a node with at most k edges keeps all.
        val (kw, kq) = perNode(sc, g, g.value.pids.length) { (w, u) =>
          val n = w.walk(u, upper = false)
          if (n <= k) (Double.NegativeInfinity, Int.MaxValue)
          else {
            val top = new TopK(k)
            (0 until n).foreach(i => top.offer(w.weight(i), w.nbr(i)))
            (top.heap.peek._1, top.heap.peek._2.toInt)
          }
        }.unzip
        val (bw, bq) = (sc.broadcast(kw), sc.broadcast(kq))
        pairs(kept(sc, g) { () =>
          val (tw, tq) = (bw.value, bq.value)
          def retains(node: Int, other: Int, wt: Double) =
            wt > tw(node) || (wt == tw(node) && other <= tq(node))
          (u, q, wt) => retains(u, q, wt) || retains(q, u, wt)
        })

      case PruningStrategy.Cep(k) =>
        require(k > 0, s"k must be positive, got $k")
        // An edge's key packs its dense (p1, p2), so key order is (p1, p2) order.
        val tops = walkNodes(sc, g, g.value.n1) { (w, us) =>
          val top = new TopK(k)
          us.foreach { u =>
            val n = w.walk(u, upper = true)
            (0 until n).foreach(i => top.offer(w.weight(i), u.toLong << 32 | w.nbr(i)))
          }
          top.heap.iterator.asScala
        }.collect()
        val pids = g.value.pids
        tops.sorted(bestFirst).iterator.take(math.min(k, Int.MaxValue).toInt)
          .map { case (_, e) => (pids((e >>> 32).toInt), pids(e.toInt)) }
          .toSeq.toDF("p1", "p2")
    }
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

  /** Cardinality Edge Pruning: keep the globally top-k edges. Spark plans
    * the ordered limit as a top k per partition and a merge of those.
    */
  def cep(edges: DataFrame, k: Long): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    edges
      .orderBy(col("weight").desc, col("p1").asc, col("p2").asc)
      .limit(math.min(k, Int.MaxValue).toInt)
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
