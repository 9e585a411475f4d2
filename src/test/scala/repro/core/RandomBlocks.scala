package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.scalacheck.Gen
import repro.lsh.AttributePartitioner

import scala.util.Random

/** Small random inputs for the blocker's property tests: 1 to 10 profiles
  * with unique ids over a small vocabulary, and a random partitioning of
  * their attributes into loose-schema clusters.
  */
object RandomBlocks {

  /** "𝔸" is one code point but two UTF-16 units, so it is kept at a minimum
    * token length of 2; "a" is not. "ｘ" (U+FF58) sorts before "𝔸"
    * (U+1D538) in Spark's UTF-8 string order and after it by
    * `String.compareTo`, which compares UTF-16 units.
    */
  private val vocab =
    Vector("sony", "tv", "bosch", "washer", "x5", "black", "the", "café", "𝔸", "a", "ｘ")
  private val attrs = Vector("name", "desc", "brand")

  private val genValue: Gen[String] = for {
    n <- Gen.choose(0, 4)
    tokens <- Gen.listOfN(n, Gen.oneOf(vocab))
    sep <- Gen.oneOf(" ", " - ", ", ")
    upper <- Gen.oneOf(false, true)
  } yield {
    val v = tokens.mkString(sep)
    if (upper) v.toUpperCase else v
  }

  private val genProfile: Gen[(Int, Map[String, String])] = for {
    source <- Gen.oneOf(1, 2)
    k <- Gen.choose(1, attrs.size)
    names <- Gen.pick(k, attrs)
    values <- Gen.listOfN(k, genValue)
  } yield (source, names.zip(values).toMap)

  /** Profiles with unique ids, and `(attrKey, cluster)` for every qualified
    * attribute, clusters in 0..2.
    */
  val genProfiles: Gen[(Seq[Profile], Seq[(String, Int)])] = for {
    n <- Gen.choose(1, 10)
    ps <- Gen.listOfN(n, genProfile)
    clusters <- Gen.listOfN(2 * attrs.size, Gen.choose(0, 2))
  } yield {
    val profiles = ps.zipWithIndex.map { case ((s, m), i) => Profile(i + 1L, s, m) }
    val attrKeys = for (s <- Seq(1, 2); a <- attrs) yield s"$s::$a"
    (profiles, attrKeys.zip(clusters))
  }

  /** Schema-agnostic and loose-schema assignments of one input; cluster `c`
    * has entropy `(c + 1) / 3`.
    */
  def blockings(
      spark: SparkSession,
      profiles: Seq[Profile],
      clusters: Seq[(String, Int)],
      minTokenLength: Int = Tokenizer.DefaultMinLength): Seq[DataFrame] = {
    val kv = Profiles.toKV(Profiles.fromSeq(spark, profiles))
    val clustersDf = AttributePartitioner.toDF(spark, clusterTable(clusters))
    Seq(
      TokenBlocking.schemaAgnostic(kv, minTokenLength),
      TokenBlocking.looseSchema(kv, clustersDf, minTokenLength))
  }

  /** `clusters` as the cluster table of [[blockings]]: cluster `c` has
    * entropy `(c + 1) / 3`.
    */
  def clusterTable(clusters: Seq[(String, Int)]): Map[String, (Int, Double)] =
    clusters.map { case (k, c) => k -> (c, (c + 1) / 3.0) }.toMap

  /** `profiles` in three layouts: one partition, three partitions, and
    * shuffled by `seed` into two.
    */
  def profileLayouts(spark: SparkSession, profiles: Seq[Profile], seed: Int): Seq[Dataset[Profile]] =
    Seq(Profiles.fromSeq(spark, profiles).coalesce(1), Profiles.fromSeq(spark, profiles, 3),
      Profiles.fromSeq(spark, new Random(seed).shuffle(profiles), 2))

  /** The rows of `a` in two other layouts: repartitioned into 3, and
    * collected, shuffled by `seed` and repartitioned into 2.
    */
  def layouts(a: DataFrame, seed: Int): Seq[DataFrame] = {
    import a.sparkSession.implicits._
    val shuffled = new Random(seed)
      .shuffle(a.as[(String, Double, Long, Int)].collect().toSeq)
      .toDF(a.columns.toIndexedSeq: _*)
    Seq(a.repartition(3), shuffled.repartition(2))
  }
}
