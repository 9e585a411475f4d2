package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.MetaBlocking.WeightScheme

/** The weighted blocking graph as a key self-join and an aggregate, which
  * `MetaBlocking.edges`' broadcast neighbourhood construction must
  * reproduce: the same pairs, and weights equal up to the order in which
  * Spark's `sum` adds the block entropies.
  */
object MetaBlockingReference {

  def edges(
      assignments: DataFrame,
      mode: ERMode,
      scheme: WeightScheme = WeightScheme.CBS,
      useEntropy: Boolean = false): DataFrame = {
    val pairs = TokenBlocking
      .blockPairs(assignments, mode)
      .groupBy("p1", "p2")
      .agg(count(lit(1)) as "cbs", sum("entropy") as "entSum")

    val weighted = scheme match {
      case WeightScheme.CBS =>
        val w = if (useEntropy) col("entSum") else col("cbs").cast("double")
        pairs.withColumn("weight", w)
      case WeightScheme.JS =>
        val nb = assignments.groupBy("pid").agg(count(lit(1)) as "nb")
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
