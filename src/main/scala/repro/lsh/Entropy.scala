package repro.lsh

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lsh.AttributePartitioner.{BlobCluster, TokenCounts}

import scala.collection.mutable

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
  *
  * The blocker computes them on the driver from the token counts it has
  * already read (`clusterEntropies` over `TokenCounts`). The KV variant, a
  * Spark aggregate over every KV row, is the reference it is tested
  * against. [[shannon]] sums in a canonical order, so the two agree bit
  * for bit, whatever the partition layout.
  */
object Entropy {

  /** Shannon entropy (bits) of a frequency histogram. The terms are summed
    * in ascending order of count, so the result does not depend on the
    * order of `counts`.
    */
  def shannon(counts: Iterable[Long]): Double = {
    val sorted = counts.toArray.sorted
    val total = sorted.sum.toDouble
    if (total <= 0) 0.0
    else
      sorted.foldLeft(0.0) { (h, c) =>
        if (c <= 0) h
        else {
          val p = c / total
          h - p * math.log(p) / math.log(2)
        }
      }
  }

  /** Normalized entropy per cluster id for a given attribute partitioning;
    * attributes `partition` does not name count in the blob. One Spark
    * aggregate over `kv`: the reference of the `TokenCounts` variant.
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
    normalized(counts.groupBy(_._1).map { case (c, rows) => c -> shannon(rows.map(_._3)) })
  }

  /** `clusterEntropies` from per-attribute token counts, on the driver: a
    * cluster's token counts are the sums of its members' counts.
    */
  def clusterEntropies(counts: TokenCounts, partition: Map[String, Int]): Map[Int, Double] = {
    val byCluster = mutable.HashMap.empty[Int, mutable.HashMap[String, Long]]
    for ((attrKey, tokens) <- counts) {
      val sums = byCluster.getOrElseUpdate(partition.getOrElse(attrKey, BlobCluster), mutable.HashMap.empty)
      for ((token, n) <- tokens) sums(token) = sums.getOrElse(token, 0L) + n
    }
    normalized(byCluster.iterator.map { case (c, sums) => c -> shannon(sums.values) }.toMap)
  }

  /** Each cluster's entropy divided by the largest; all 1.0 if that is 0. */
  private def normalized(raw: Map[Int, Double]): Map[Int, Double] =
    if (raw.isEmpty) raw
    else {
      val maxH = raw.values.max
      if (maxH <= 0) raw.map { case (c, _) => c -> 1.0 }
      else raw.map { case (c, h) => c -> h / maxH }
    }
}
