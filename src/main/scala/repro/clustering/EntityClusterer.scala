package repro.clustering

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.Profile

/** Entity Clusterer (§2.2, Fig 5): similarity graph → connected components
  * → entity generation. Profiles with no matching pair become singleton
  * entities. Entity ids are the minimum profile id of the cluster.
  *
  * A match graph of at most [[ConnectedComponents.DriverEdgeBound]] edges
  * is closed on the driver (its memory cost is on [[ConnectedComponents]])
  * and its labels reach the join below as a broadcast local table, so the
  * profile ids are not shuffled. Larger graphs fall back to distributed
  * label propagation, and the join shuffles both sides.
  */
object EntityClusterer {

  /** @param matches (p1, p2[, score]) matching pairs from the matcher
    * @param profiles all input profiles (for singleton entities)
    * @return (pid, entityId)
    */
  def cluster(matches: DataFrame, profiles: Dataset[Profile]): DataFrame = {
    val comps = ConnectedComponents.run(
      matches.select(col("p1") as "src", col("p2") as "dst"))
    profiles
      .select(col("id") as "pid")
      .join(comps.withColumnRenamed("id", "pid"), Seq("pid"), "left")
      .select(col("pid"), coalesce(col("component"), col("pid")) as "entityId")
  }
}
