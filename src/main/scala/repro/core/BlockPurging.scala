package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Block Purging (§2.1): "discards all the blocks that contain more than
  * half of the profiles in the collection, corresponding to highly frequent
  * blocking keys (e.g. stop-words)".
  *
  * `maxFraction` generalizes the paper's 1/2; the comparison is strict
  * (`size > maxFraction·|P|`), so at the default a block holding exactly
  * half the profiles survives. Block sizes are the `size` window column of
  * [[TokenBlocking.withBlockStats]], so purging is one pass over its input
  * with no aggregate joined back. It drops whole blocks, so the sizes of
  * the blocks it keeps are unchanged.
  *
  * This is the DataFrame reference of the blocker's purging: the blocker
  * drops the keys above the limit from the block-size aggregate of
  * [[FrontEnd.filtered]], and is tested against this function.
  */
object BlockPurging {

  val DefaultMaxFraction = 0.5

  def purge(
      assignments: DataFrame,
      totalProfiles: Long,
      maxFraction: Double = DefaultMaxFraction): DataFrame = {
    require(maxFraction > 0, s"maxFraction must be positive, got $maxFraction")
    val limit = maxFraction * totalProfiles
    TokenBlocking
      .withBlockStats(assignments)
      .where(col("size") <= limit)
      .drop(TokenBlocking.BlockStatColumns: _*)
  }
}
