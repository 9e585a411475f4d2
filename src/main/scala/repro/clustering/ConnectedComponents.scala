package repro.clustering

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lsh.UnionFind

/** Connected components over a pair graph: every node is labelled with the
  * minimum node id reachable from it.
  *
  * The paper uses GraphX's connected components; this is a self-contained
  * reimplementation of the same fixpoint in one pass, with no rounds:
  *  - each partition closes its own edges with [[repro.lsh.UnionFind]] and
  *    emits its forest as `(member, root)` for every member that is not
  *    the root of its partition-local component, or `(root, root)` for a
  *    one-node component, which only a self-loop makes;
  *  - one collect reads those forests to the driver, packed as one row of
  *    two arrays per partition: at most one link per edge, and at most one
  *    per node per partition, so at most min(edges, partitions × nodes)
  *    links;
  *  - one driver union-find merges them, and the labels come back as a
  *    local table with a `broadcast` hint, so a join to all profile ids
  *    ships them to the executors instead of shuffling the profiles.
  *
  * The driver holds the collected links, the union-find map and the label
  * table at once; the map and the table hold one entry per node. The
  * pipeline reads at most `EntityMatcher.DriverSignatureBound` profiles,
  * so that bounds the nodes of every match graph it closes; README § Scale
  * ceiling gives the heap there.
  */
object ConnectedComponents {

  /** @param edges (src, dst) pairs, any orientation, duplicates allowed
    * @return (id, component) — component = min reachable id
    */
  def run(edges: DataFrame): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val forests = edges
      .select(col("src").cast("long"), col("dst").cast("long"))
      .as[(Long, Long)]
      .mapPartitions { part =>
        val uf = new UnionFind[Long]
        part.foreach { case (a, b) => uf.union(a, b) }
        val links = uf.components.iterator.flatMap { case (root, members) =>
          if (members.size == 1) Iterator(root -> root)
          else members.iterator.filter(_ != root).map(_ -> root)
        }
        // One row per partition: two long arrays cost fewer task-result
        // bytes than one two-column row per link.
        Iterator(links.toArray.unzip)
      }
      .collect()
    val uf = new UnionFind[Long]
    for ((members, roots) <- forests; i <- members.indices) uf.union(members(i), roots(i))
    val labels = uf.components.valuesIterator.flatMap { members =>
      val least = members.min
      members.iterator.map(_ -> least)
    }
    broadcast(labels.toSeq.toDF("id", "component"))
  }
}
