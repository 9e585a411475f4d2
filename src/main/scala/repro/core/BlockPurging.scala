package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Block Purging (§2.1): "discards all the blocks that contain more than
  * half of the profiles in the collection, corresponding to highly frequent
  * blocking keys (e.g. stop-words)".
  *
  * `maxFraction` generalizes the paper's 1/2; the comparison is strict
  * (`size > maxFraction·|P|`), so at the default a block holding exactly
  * half the profiles survives. Block sizes come from
  * [[TokenBlocking.blockStats]].
  */
object BlockPurging {

  val DefaultMaxFraction = 0.5

  def purge(
      assignments: DataFrame,
      totalProfiles: Long,
      maxFraction: Double = DefaultMaxFraction): DataFrame = {
    require(maxFraction > 0, s"maxFraction must be positive, got $maxFraction")
    val limit = maxFraction * totalProfiles
    val keep = TokenBlocking.blockStats(assignments).where(col("size") <= limit).select("key")
    assignments.join(keep, "key")
  }
}
