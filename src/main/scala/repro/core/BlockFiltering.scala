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
  * sizes come from [[TokenBlocking.blockStats]].
  */
object BlockFiltering {

  val DefaultRatio = 0.8

  def filter(assignments: DataFrame, ratio: Double = DefaultRatio): DataFrame = {
    require(ratio > 0 && ratio <= 1, s"ratio must be in (0,1], got $ratio")
    val sizes = TokenBlocking.blockStats(assignments).select(col("key"), col("size") as "blockSize")
    val withSize = assignments.join(sizes, "key")
    val byProfile = Window.partitionBy("pid").orderBy(col("blockSize").asc, col("key").asc)
    withSize
      .withColumn("rank", row_number().over(byProfile))
      .withColumn("nBlocks", count(lit(1)).over(Window.partitionBy("pid")))
      .where(col("rank") <= ceil(col("nBlocks") * ratio))
      .drop("rank", "nBlocks", "blockSize")
  }
}
