package repro.clustering

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.Profile

/** Entity Clusterer (§2.2, Fig 5): similarity graph → connected components
  * → entity generation. Profiles with no matching pair become singleton
  * entities. Entity ids are the minimum profile id of the cluster.
  *
  * The match graph is closed on the driver (its memory cost is on
  * [[ConnectedComponents]]) and its labels reach the join below as a
  * broadcast local table, so the profile ids are not shuffled.
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
