package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.MetaBlocking.WeightScheme

/** The weighted blocking graph as a key self-join and an aggregate, which
  * `MetaBlocking.edges`' broadcast neighbourhood construction must
  * reproduce: the same pairs, and weights equal up to the order in which
  * Spark's `sum` adds the block entropies. Its distinct pairs are the
  * block comparisons that `TokenBlocking.comparisons` must reproduce.
  */
object MetaBlockingReference {

  /** Every comparison each block yields, as `(key, p1, p2, entropy)` with
    * the block's entropy. Clean-clean: p1 from source 1, p2 from another
    * source; dirty: p1 < p2. A pair shared by several blocks appears once
    * per block.
    */
  def blockPairs(assignments: DataFrame, mode: ERMode): DataFrame = {
    val a = assignments.select(
      col("key"), col("pid") as "p1", col("source") as "s1", col("entropy"))
    val b = assignments.select(col("key") as "key2", col("pid") as "p2", col("source") as "s2")
    val joined = a.join(b, col("key") === col("key2"))
    (mode match {
      case ERMode.CleanClean => joined.where(col("s1") === 1 && col("s2") =!= 1)
      case ERMode.Dirty => joined.where(col("p1") < col("p2"))
    }).select("key", "p1", "p2", "entropy")
  }

  /** The distinct `(p1, p2)` of [[blockPairs]]. */
  def comparisons(assignments: DataFrame, mode: ERMode): DataFrame =
    blockPairs(assignments, mode).select("p1", "p2").distinct()

  def edges(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false): DataFrame = {
    val blocks = blockPairs(assignments, mode)
    val pairs = blocks
      .groupBy("p1", "p2")
      .agg(count(lit(1)) as "cbs", sum("entropy") as "entSum")

    val weighted = scheme match {
      case WeightScheme.CBS =>
        val w = if (useEntropy) col("entSum") else col("cbs").cast("double")
        pairs.withColumn("weight", w)
      case WeightScheme.JS =>
        // A profile's block count covers only the blocks that yield it a
        // comparison, as the broadcast index keeps only those.
        val nb = blocks.select(col("key"), col("p1") as "pid")
          .union(blocks.select(col("key"), col("p2") as "pid"))
          .distinct()
          .groupBy("pid").agg(count(lit(1)) as "nb")
        val js = col("cbs") / (col("nb1") + col("nb2") - col("cbs"))
        pairs
          .join(nb.withColumnRenamed("pid", "p1").withColumnRenamed("nb", "nb1"), "p1")
          .join(nb.withColumnRenamed("pid", "p2").withColumnRenamed("nb", "nb2"), "p2")
          .withColumn(
            "weight",
            if (useEntropy) js * col("entSum") / col("cbs") else js)
    }
    weighted.select(col("p1"), col("p2"), col("weight").cast("double"))
  }
}
