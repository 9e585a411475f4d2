package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.col
import org.apache.spark.unsafe.types.UTF8String

/** The blocker's front end: token blocking, purging and filtering as two
  * maps over the profiles, parallelised the way the paper parallelises its
  * blocker, "inspired by the broadcast join" (§2.1). A small block-level
  * table goes to every partition, and the per-profile work runs where the
  * profile already lives.
  *
  *  1. Each profile's distinct blocking keys are aggregated by key into
  *     block sizes. That aggregate is the front end's only shuffle, and it
  *     moves partial counts, not assignment rows. Blocks above the purge
  *     limit are dropped before the sizes reach the driver.
  *  2. The driver ranks the unpurged keys by `(size asc, key asc)` and
  *     broadcasts `key → rank`.
  *  3. A second map over the same per-profile keys keeps each profile's
  *     unpurged keys, lowest rank first, up to `ceil(n · ratio)` of them.
  *
  * The rows equal `BlockFiltering.filter(BlockPurging.purge(blocking))`
  * for `TokenBlocking.schemaAgnostic` or `looseSchema` as `blocking`:
  * those DataFrame functions are the reference this path is tested
  * against. A key, its entropy and its length filter are those of the two
  * blocking functions, and key ties break in Spark's string order (UTF-8
  * bytes, as `UTF8String.compareTo`), which is not `String.compareTo`'s
  * UTF-16 order.
  */
object FrontEnd {

  /** Most unpurged blocking keys the blocker reads to the driver.
    * Measured at the bound on a 64-bit JVM (JDK 17), with keys of 12
    * characters: the collected `(key, size)` rows, their ranked copy and
    * the table built from them, with its broadcast blocks, peak at 116 MB
    * of driver heap, and the table and its blocks keep 94 MB.
    */
  val DriverKeyBound = 1000000

  /** The unpurged keys, sorted by `String.compareTo` for binary search,
    * and each key's rank in `(size asc, key asc)` order.
    */
  private final class KeyRanks(val keys: Array[String], val ranks: Array[Int]) extends Serializable {

    /** The rank of `key`, or -1 if the key was purged. */
    def apply(key: String): Int = {
      val i = java.util.Arrays.binarySearch(keys.asInstanceOf[Array[AnyRef]], key)
      if (i < 0) -1 else ranks(i)
    }
  }

  /** The distinct blocking keys of one profile with their entropies: each
    * token that is [[Tokenizer.longEnough]], or with `clusters`,
    * `token#cluster` with its cluster's entropy. An attribute `clusters`
    * does not name yields no key, as in `looseSchema`'s join.
    */
  private def keysOf(
      p: Profile,
      clusters: Option[Map[String, (Int, Double)]],
      minTokenLength: Int): Array[(String, Double)] =
    Profiles.attrTokens(p)
      .filter(t => Tokenizer.longEnough(t._2, minTokenLength))
      .flatMap { case (attrKey, token) =>
        clusters match {
          case None => Some((token, 1.0))
          case Some(c) => c.get(attrKey).map { case (cluster, e) => (s"$token#$cluster", e) }
        }
      }
      .distinctBy(_._1)
      .toArray

  /** The filtered block assignments `(key, entropy, pid, source)` of
    * `profiles`: schema-agnostic keys, or loose-schema keys with
    * `clusters`. `totalProfiles` is the profile count purging divides by.
    * Also returns the number of unpurged assignments, the sum of the
    * unpurged block sizes, which bounds the number of filtered ones. Fails
    * above `bound` ([[DriverKeyBound]]) unpurged keys, with their count.
    */
  private[repro] def filtered(
      profiles: Dataset[Profile],
      clusters: Option[Map[String, (Int, Double)]],
      minTokenLength: Int,
      totalProfiles: Long,
      purgeFactor: Double,
      filterRatio: Double,
      bound: Int = DriverKeyBound): (DataFrame, Long) = {
    val spark = profiles.sparkSession
    import spark.implicits._
    val limit = purgeFactor * totalProfiles
    val sizes = profiles
      .flatMap(p => keysOf(p, clusters, minTokenLength).map(_._1))
      .groupBy("value").count()
      .where(col("count") <= limit)
      .as[(String, Long)]
    val unpurged = sizes.limit(bound + 1).collect()
    require(unpurged.length <= bound,
      s"the blocker broadcasts one rank per unpurged blocking key, at most $bound keys; " +
        s"there are ${sizes.count()} unpurged keys")

    // Ties in Spark's string order, as BlockFiltering's `key.asc`.
    val ranked = unpurged.sortBy { case (key, size) => (size, UTF8String.fromString(key)) }
    val byKey = ranked.indices.toArray.sortBy(ranked(_)._1)
    val table = spark.sparkContext.broadcast(new KeyRanks(byKey.map(ranked(_)._1), byKey))
    val rows = profiles
      .mapPartitions { ps =>
        val t = table.value
        ps.flatMap { p =>
          val kept = keysOf(p, clusters, minTokenLength)
            .flatMap { case (key, e) => val r = t(key); Option.when(r >= 0)((r, key, e)) }
            .sortBy(_._1)
          kept.iterator
            .take(math.ceil(kept.length.toDouble * filterRatio).toInt)
            .map { case (_, key, e) => (key, e, p.id, p.source) }
        }
      }
      .toDF("key", "entropy", "pid", "source")
    (rows, unpurged.iterator.map(_._2).sum)
  }
}
