package repro.lsh

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Loose Schema Generator — Attribute Partitioning (§2.1, Fig 2a).
  *
  * "attributes are partitioned in clusters using a Locality-Sensitive
  * Hashing (LSH) based algorithm. Initially, LSH is applied to the
  * attributes' values, in order to group them according to their
  * similarity. These groups are overlapping [...]. Then, for each
  * attribute only the most similar one is kept, obtaining pairs of similar
  * attributes. Finally, the transitive closure is applied [...] and then
  * attributes are partitioned into non-overlapping clusters. All the
  * attributes that do not appear in any cluster are put in a blob
  * partition."
  *
  * Attributes are identified by the qualified key "source::attr", so the
  * same attribute name in two sources stays distinct. The LSH/closure
  * steps run on the driver — the number of *attributes* is tiny even when
  * the data is big, which is exactly why the paper can afford this step.
  * Their input is read in one pass over the profiles: the blocker hands
  * [[clusterTable]] and [[manualClusterTable]] the per-attribute token
  * counts of `repro.core.Profiles.tokenCounts`, whose keys are the token
  * sets and whose sums give the entropies. The variants over the KV table
  * ([[attributeTokenSets]], the KV `clusterTable`, `manualClusterTable`,
  * [[clustersDF]] and [[manualClustersDF]]) are Spark aggregates over
  * every token occurrence: the reference the counts path is tested
  * against, bit for bit.
  *
  * Cluster ids: 0 is the blob partition, real clusters are 1..n, numbered
  * by their lexicographically smallest member for determinism.
  */
object AttributePartitioner {

  /** The one knob the demo GUI surfaces: the clustering threshold, which
    * the §4 walkthrough sweeps (1.0 ⇒ everything in the blob ⇒ plain
    * schema-agnostic blocking; ~0.3 ⇒ the "good" automatic partitions).
    * The LSH sizes are the constants of [[MinHasher]].
    */
  final case class Params(threshold: Double = 0.3)

  val BlobCluster = 0

  /** Occurrences of each token in each qualified attribute's values:
    * `attrKey → token → count`.
    */
  type TokenCounts = Map[String, Map[String, Long]]

  /** Distinct token set of each qualified attribute's values. */
  def attributeTokenSets(kv: DataFrame): Map[String, Set[String]] = {
    val spark = kv.sparkSession
    import spark.implicits._
    kv.select("attrKey", "token")
      .distinct()
      .as[(String, String)]
      .collect()
      .groupBy(_._1)
      .map { case (k, vs) => k -> vs.map(_._2).toSet }
  }

  /** LSH candidate pairs → exact-Jaccard filter → best match per attribute
    * → transitive closure → non-overlapping partitions (+ blob).
    *
    * @return attrKey → cluster id
    */
  def partition(tokenSets: Map[String, Set[String]], params: Params): Map[String, Int] = {
    require(params.threshold > 0, s"threshold must be positive, got ${params.threshold}")
    val attrs = tokenSets.keys.toVector.sorted
    val sigs = attrs.map(a => a -> MinHasher.signature(tokenSets(a))).toMap

    // Overlapping LSH groups: attributes sharing any band bucket.
    val buckets = attrs
      .flatMap(a => MinHasher.bandKeys(sigs(a)).map(bk => (bk, a)))
      .groupBy(_._1)
      .values
      .map(_.map(_._2).distinct)
      .filter(_.size > 1)
    val candidates = buckets
      .flatMap(grp => for (i <- grp.indices; j <- i + 1 until grp.size) yield {
        val (a, b) = (grp(i), grp(j))
        if (a < b) (a, b) else (b, a)
      })
      .toSet

    // Exact similarity on candidates only; keep each attribute's best match.
    val sims = candidates.toSeq
      .map { case (a, b) => (a, b, Jaccard(tokenSets(a), tokenSets(b))) }
      .filter(_._3 >= params.threshold)
    val best = attrs.flatMap { a =>
      val mine = sims.collect {
        case (x, y, s) if x == a => (y, s)
        case (x, y, s) if y == a => (x, s)
      }
      if (mine.isEmpty) None
      else {
        val (partner, _) = mine.maxBy { case (p, s) => (s, p) } // ties → larger key, deterministic
        Some(if (a < partner) (a, partner) else (partner, a))
      }
    }.distinct

    // Transitive closure over the best-match pairs.
    val uf = new UnionFind[String]
    best.foreach { case (a, b) => uf.union(a, b) }
    val comps = uf.components.values.filter(_.size > 1).toVector.sortBy(_.min)
    val clustered = comps.zipWithIndex.flatMap { case (members, i) =>
      members.map(_ -> (i + 1))
    }.toMap
    attrs.map(a => a -> clustered.getOrElse(a, BlobCluster)).toMap
  }

  /** An attribute partitioning with entropies, on the driver:
    * `attrKey → (cluster, entropy of the cluster)`.
    */
  type ClusterTable = Map[String, (Int, Double)]

  /** Run the full step on profile data and attach entropies. `partition`
    * assigns every attribute of `kv` a cluster.
    */
  def clusterTable(kv: DataFrame, params: Params = Params()): ClusterTable = {
    val parts = partition(attributeTokenSets(kv), params)
    withEntropies(parts, Entropy.clusterEntropies(kv, parts))
  }

  /** [[clusterTable]] from token counts, all on the driver: the token sets
    * are the keys of `counts`, and the entropies their sums per cluster.
    */
  def clusterTable(counts: TokenCounts, params: Params): ClusterTable = {
    val parts = partition(counts.map { case (attrKey, tokens) => attrKey -> tokens.keySet }, params)
    withEntropies(parts, Entropy.clusterEntropies(counts, parts))
  }

  /** [[clusterTable]] as the `(attrKey, cluster, entropy)` DataFrame
    * [[repro.core.TokenBlocking.looseSchema]] consumes.
    */
  def clustersDF(spark: SparkSession, kv: DataFrame, params: Params = Params()): DataFrame =
    toDF(spark, clusterTable(kv, params))

  /** A user-supplied manual partitioning (the demo's Fig 6c edit), with
    * entropies. Attributes of `kv` the map does not name go to the blob
    * partition (§2.1: "All the attributes that do not appear in any cluster
    * are put in a blob partition"); their keys are read in one collect,
    * bounded by the attribute count.
    */
  def manualClusterTable(kv: DataFrame, clusters: Map[String, Int]): ClusterTable = {
    import kv.sparkSession.implicits._
    val attrKeys = kv.select("attrKey").distinct().as[String].collect()
    val parts = attrKeys.map(_ -> BlobCluster).toMap ++ clusters
    withEntropies(parts, Entropy.clusterEntropies(kv, parts))
  }

  /** [[manualClusterTable]] from token counts, on the driver: the
    * attributes are the keys of `counts`.
    */
  def manualClusterTable(counts: TokenCounts, clusters: Map[String, Int]): ClusterTable = {
    val parts = counts.keys.map(_ -> BlobCluster).toMap ++ clusters
    withEntropies(parts, Entropy.clusterEntropies(counts, parts))
  }

  /** [[manualClusterTable]] as the same `(attrKey, cluster, entropy)`
    * DataFrame as [[clustersDF]].
    */
  def manualClustersDF(spark: SparkSession, kv: DataFrame, clusters: Map[String, Int]): DataFrame =
    toDF(spark, manualClusterTable(kv, clusters))

  /** One `(attrKey, cluster, entropy)` row per attribute of `table`. */
  def toDF(spark: SparkSession, table: ClusterTable): DataFrame = {
    import spark.implicits._
    table.toSeq.map { case (attrKey, (c, e)) => (attrKey, c, e) }.toDF("attrKey", "cluster", "entropy")
  }

  /** `clusters` with each cluster's entropy; 1.0 for a cluster with no token. */
  private def withEntropies(clusters: Map[String, Int], ent: Map[Int, Double]): ClusterTable =
    clusters.map { case (attrKey, c) => attrKey -> (c, ent.getOrElse(c, 1.0)) }
}
