package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** An entity profile: one record from one data source.
  *
  * SparkER is schema-agnostic, so a profile is just an id plus a bag of
  * (attribute, value) pairs; `source` distinguishes the two datasets in a
  * clean-clean ER task (1 = "Abt", 2 = "Buy" in the demo) and is constant
  * in dirty ER.
  *
  * @param id         globally unique profile id (across sources)
  * @param source     data-source id (1-based)
  * @param attributes attribute name -> raw string value
  */
final case class Profile(id: Long, source: Int, attributes: Map[String, String])

/** Conversions between `Dataset[Profile]` and the exploded key-value
  * DataFrame every blocker stage consumes.
  *
  * KV schema: `(pid: Long, source: Int, attr: String, value: String)` —
  * one row per non-empty attribute value. `attrKey` combines source and
  * attribute name (`"1::name"`) because loose-schema partitioning treats
  * the same attribute name in different sources as distinct attributes.
  */
object Profiles {

  /** Exploded (pid, source, attr, value) view of a profile collection. */
  def toKV(profiles: Dataset[Profile]): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    profiles
      .flatMap { p =>
        p.attributes.iterator
          .filter { case (_, v) => v != null && v.nonEmpty }
          .map { case (a, v) => (p.id, p.source, a, v) }
          .toSeq
      }
      .toDF("pid", "source", "attr", "value")
  }

  /** Qualified attribute key "source::attr" used by attribute partitioning. */
  def withAttrKey(kv: DataFrame): DataFrame =
    kv.withColumn("attrKey", concat(col("source").cast("string"), lit("::"), col("attr")))

  /** Parallelize a driver-side profile list (synthetic data is small). */
  def fromSeq(spark: SparkSession, ps: Seq[Profile], partitions: Int = 0): Dataset[Profile] = {
    import spark.implicits._
    val ds = spark.createDataset(ps)
    if (partitions > 0) ds.repartition(partitions) else ds
  }
}
