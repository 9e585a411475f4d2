package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Block Filtering (§2.1): "removes each profile from the largest 20% of
  * blocks in which it appears, increasing the precision without affecting
  * the recall".
  *
  * For each profile, its blocks are ranked by size ascending and only the
  * smallest `ceil(ratio · #blocks)` memberships are kept (ratio = 0.8 ⇒
  * the largest 20% are dropped). Ties break on key for determinism. Block
  * sizes are the `size` window column of [[TokenBlocking.withBlockStats]]
  * over the input, so after purging (which drops whole blocks) they are the
  * raw token-blocking sizes, and on input clustered by key they cost no
  * shuffle; the per-profile rank is the one shuffle, by `pid`.
  */
object BlockFiltering {

  val DefaultRatio = 0.8

  def filter(assignments: DataFrame, ratio: Double = DefaultRatio): DataFrame = {
    require(ratio > 0 && ratio <= 1, s"ratio must be in (0,1], got $ratio")
    val byProfile = Window.partitionBy("pid")
    TokenBlocking
      .withBlockStats(assignments)
      .withColumn("rank", row_number().over(byProfile.orderBy(col("size").asc, col("key").asc)))
      .withColumn("nBlocks", count(lit(1)).over(byProfile))
      .where(col("rank") <= ceil(col("nBlocks") * ratio))
      .drop("rank" +: "nBlocks" +: TokenBlocking.BlockStatColumns: _*)
  }
}
