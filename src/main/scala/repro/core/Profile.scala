package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import scala.collection.mutable

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

/** Conversions between `Dataset[Profile]` and its bag-of-words views: the
  * per-attribute token counts that loose-schema generation reads, and the
  * KV table, which the blocker no longer builds. KV is the DataFrame
  * reference that the token counts and the blocker's front end are tested
  * against, and [[repro.debug.Sampler]] reads it.
  *
  * KV schema: `(pid: Long, source: Int, attrKey: String, token: String)` —
  * one row per token occurrence of an attribute value, duplicates kept (an
  * entropy counts occurrences). `attrKey` combines source and attribute
  * name (`"1::name"`) because loose-schema partitioning treats the same
  * attribute name in different sources as distinct attributes.
  */
object Profiles {

  /** The (pid, source, attrKey, token) table of a profile collection, one
    * row per pair of [[attrTokens]].
    */
  def toKV(profiles: Dataset[Profile]): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    profiles
      .flatMap(p => attrTokens(p).map { case (attrKey, t) => (p.id, p.source, attrKey, t) }.toSeq)
      .toDF("pid", "source", "attrKey", "token")
  }

  /** Occurrences of each token in each qualified attribute's values,
    * `attrKey → token → count`: the counts [[toKV]]'s rows aggregate to,
    * read in one job with no shuffle. Each task counts its profiles'
    * [[attrTokens]] into a local map and returns that map's rows; the
    * driver merges them. So the driver reads at most one row per distinct
    * `(attrKey, token)` per partition, bounded by the vocabulary, not by
    * the data. An attribute with no token has no entry.
    */
  def tokenCounts(profiles: Dataset[Profile]): Map[String, Map[String, Long]] = {
    import profiles.sparkSession.implicits._
    val partial = profiles
      .mapPartitions { ps =>
        val counts = mutable.HashMap.empty[(String, String), Long]
        ps.foreach(p => attrTokens(p).foreach(t => counts(t) = counts.getOrElse(t, 0L) + 1))
        counts.iterator.map { case ((attrKey, token), n) => (attrKey, token, n) }
      }
      .collect()
    val merged = mutable.HashMap.empty[String, mutable.HashMap[String, Long]]
    for ((attrKey, token, n) <- partial) {
      val tokens = merged.getOrElseUpdate(attrKey, mutable.HashMap.empty)
      tokens(token) = tokens.getOrElse(token, 0L) + n
    }
    merged.iterator.map { case (attrKey, tokens) => attrKey -> tokens.toMap }.toMap
  }

  /** The `(attrKey, token)` pairs of one profile, duplicates kept: the one
    * place values are tokenized, at [[Tokenizer.DefaultMinLength]].
    * [[toKV]], [[tokenCounts]] and the blocker's per-profile keys
    * ([[FrontEnd]]) read them.
    */
  private[core] def attrTokens(p: Profile): Iterator[(String, String)] =
    p.attributes.iterator.flatMap { case (a, v) =>
      val attrKey = s"${p.source}::$a"
      Tokenizer.tokenize(v).iterator.map(t => (attrKey, t))
    }

  /** Checks the input contract the blocker relies on and counts the
    * profiles, in one Spark job. Profile ids must be unique: block
    * statistics count assignment rows, and a repeated id would also pair a
    * profile with itself. In clean-clean ER every source must be 1 or 2,
    * since comparisons only pair source 1 with the other side.
    *
    * @return the number of profiles
    */
  def validate(profiles: Dataset[Profile], mode: ERMode): Long = {
    import profiles.sparkSession.implicits._
    // (profiles, a repeated id, a disallowed source). An RDD action, so the
    // shuffle by id and the fold run as one job; a DataFrame aggregate runs
    // each shuffle stage as a job of its own under adaptive query execution.
    type Summary = (Long, Option[Long], Option[Int])
    def merge(a: Summary, b: Summary): Summary = (a._1 + b._1, a._2.orElse(b._2), a._3.orElse(b._3))
    val (n, repeated, foreign) = profiles
      .select("id", "source").as[(Long, Int)].rdd
      .map { case (id, s) =>
        id -> ((1L, None, Option.unless(mode == ERMode.Dirty || s == 1 || s == 2)(s)): Summary)
      }
      .reduceByKey(merge _)
      .map { case (id, (k, _, f)) => (k, Option.when(k > 1)(id), f): Summary }
      .fold((0L, None, None))(merge)
    require(repeated.isEmpty, s"profile ids must be unique; id ${repeated.get} appears more than once")
    require(foreign.isEmpty, s"clean-clean ER takes sources 1 and 2 only; found source ${foreign.get}")
    n
  }

  /** Parallelize a driver-side profile list (synthetic data is small). */
  def fromSeq(spark: SparkSession, ps: Seq[Profile], partitions: Int = 0): Dataset[Profile] = {
    import spark.implicits._
    val ds = spark.createDataset(ps)
    if (partitions > 0) ds.repartition(partitions) else ds
  }
}
