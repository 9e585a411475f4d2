package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Pairwise clustering metrics by listing the pairs: the clusters
  * self-joined on `entityId`, which makes Σ n_c² rows. The counts that
  * `Metrics.evaluateClusters` computes without listing them must equal
  * these.
  */
object MetricsReference {

  def evaluateClusters(clusters: DataFrame, gt: DataFrame): Metrics.PairMetrics = {
    val a = clusters.select(col("entityId"), col("pid") as "p1")
    val b = clusters.select(col("entityId") as "e2", col("pid") as "p2")
    val pairs = a
      .join(b, col("entityId") === col("e2"))
      .where(col("p1") < col("p2"))
      .select("p1", "p2")
    Metrics.evaluatePairs(pairs, gt)
  }
}
