package repro.lsh

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lsh.AttributePartitioner.BlobCluster

/** Loose Schema Generator — Entropy Extractor (§2.1): "computes the
  * Shannon entropy for each cluster".
  *
  * The entropy of a partition is the Shannon entropy (log₂) of the token
  * *occurrence* distribution over all values of its member attributes.
  * High entropy = high value variability (names), low entropy = few
  * repeated values (prices) — finding a match inside a high-entropy
  * partition carries more evidence, so meta-blocking re-weights edges by
  * it (Fig 2c).
  *
  * Entropies are normalized by the maximum cluster entropy so weights are
  * in (0,1], matching the paper's toy values (0.4 / 0.8).
  */
object Entropy {

  /** Shannon entropy (bits) of a frequency histogram. */
  def shannon(counts: Iterable[Long]): Double = {
    val total = counts.sum.toDouble
    if (total <= 0) 0.0
    else
      counts.foldLeft(0.0) { (h, c) =>
        if (c <= 0) h
        else {
          val p = c / total
          h - p * math.log(p) / math.log(2)
        }
      }
  }

  /** Normalized entropy per cluster id for a given attribute partitioning;
    * attributes `partition` does not name count in the blob.
    */
  def clusterEntropies(kv: DataFrame, partition: Map[String, Int]): Map[Int, Double] = {
    val spark = kv.sparkSession
    import spark.implicits._
    val bPart = spark.sparkContext.broadcast(partition)
    val clusterOf = udf((attrKey: String) => bPart.value.getOrElse(attrKey, BlobCluster))
    // Token *occurrences* (not distinct) — frequency matters for entropy.
    val counts = kv
      .select(clusterOf(col("attrKey")) as "cluster", col("token"))
      .groupBy("cluster", "token")
      .agg(count(lit(1)) as "cnt")
      .as[(Int, String, Long)]
      .collect()
    val raw = counts
      .groupBy(_._1)
      .map { case (c, rows) => c -> shannon(rows.map(_._3)) }
    if (raw.isEmpty) raw
    else {
      val maxH = raw.values.max
      if (maxH <= 0) raw.map { case (c, _) => c -> 1.0 }
      else raw.map { case (c, h) => c -> h / maxH }
    }
  }
}
