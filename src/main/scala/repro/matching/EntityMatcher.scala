package repro.matching

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.Profile

/** Entity Matcher (§2.2): scores the blocker's candidate pairs and labels
  * them match / no-match by threshold, producing the *similarity graph*
  * (matching pairs with their score) the clusterer consumes.
  *
  * Scoring computes the scheme's [[Similarity.signature]] once per profile,
  * on the executors, and reads the signatures to the driver (at most
  * [[DriverSignatureBound]]; more fails). The driver sorts them by profile
  * id into one [[SignatureTable]] and broadcasts it, the way meta-blocking
  * broadcasts its block index (§2.1): the candidates then stream past the
  * table in one map, with no join and no shuffle. A profile is tokenised
  * once however many candidate pairs it is in, and each pair costs two
  * binary searches and one [[Similarity.compare]].
  */
object EntityMatcher {

  /** Most profiles whose signatures the matcher reads to the driver, above
    * the ~69k profiles that [[repro.core.MetaBlocking.DriverAssignmentBound]]
    * admits. Measured at the bound on a 64-bit JVM (JDK 17), with 200k
    * `abtBuy` profiles of 187 characters of text each: the collected rows,
    * the table built from them and the table's serialized broadcast blocks
    * peak at 77 MB of driver heap under `JaccardTokens` and 83 MB under
    * `NormalizedLevenshtein` (whose signature is the whole text); after
    * the call returns, the table and its blocks keep 65–72 MB.
    */
  val DriverSignatureBound = 200000

  /** One text per profile: attribute values concatenated in attribute-name
    * order (schema-agnostic, deterministic). A `null` value is skipped, as
    * [[repro.core.Profiles.toKV]] skips it for blocking.
    */
  def profileText(profiles: Dataset[Profile]): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    profiles
      .map(p => (p.id, p.attributes.toSeq.sortBy(_._1).map(_._2).filter(_ != null).mkString(" ")))
      .toDF("pid", "text")
  }

  /** The signatures of every profile, sorted by id: profile `pids(i)` has
    * signature `sigs(i)`.
    */
  private final class SignatureTable(
      val pids: Array[Long],
      val sigs: Array[String]) extends Serializable {

    /** The signature of profile `pid`, or `null` if it is not in the table. */
    def apply(pid: Long): String = {
      val i = java.util.Arrays.binarySearch(pids, pid)
      if (i < 0) null else sigs(i)
    }
  }

  /** Score every candidate pair. Output: (p1, p2, score), where score is
    * `Similarity.score(scheme, text1, text2)` on the two `profileText`s. A
    * candidate with an end that is not among `profiles` is dropped. Fails
    * above [[DriverSignatureBound]] profiles.
    */
  def scorePairs(
      candidates: DataFrame,
      profiles: Dataset[Profile],
      scheme: Similarity.Scheme): DataFrame =
    scorePairs(candidates, profiles, scheme, DriverSignatureBound)

  /** [[scorePairs]] with at most `bound` profiles read to the driver. The
    * broadcast stays alive: the result is lazy and may be evaluated again.
    */
  private[matching] def scorePairs(
      candidates: DataFrame,
      profiles: Dataset[Profile],
      scheme: Similarity.Scheme,
      bound: Int): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    val rows = profileText(profiles)
      .as[(Long, String)]
      .map { case (pid, text) => (pid, Similarity.signature(scheme, text)) }
      .limit(bound + 1)
      .collect()
    require(rows.length <= bound,
      s"the matcher broadcasts one signature per profile, at most $bound; " +
        s"there are ${profiles.count()} profiles")
    val sorted = rows.sortBy(_._1)
    val table = spark.sparkContext.broadcast(
      new SignatureTable(sorted.map(_._1), sorted.map(_._2)))
    // A typed map rather than a UDF in a projection: the optimizer would
    // copy the projection's score into `matches`' threshold filter, which
    // would run the comparison twice per pair.
    candidates
      .select("p1", "p2")
      .as[(Long, Long)]
      .mapPartitions { pairs =>
        val t = table.value
        pairs.flatMap { case (p1, p2) =>
          val (a, b) = (t(p1), t(p2))
          if (a == null || b == null) None else Some((p1, p2, Similarity.compare(scheme, a, b)))
        }
      }
      .toDF("p1", "p2", "score")
  }

  /** Threshold the similarity graph into matching pairs. */
  def matches(
      candidates: DataFrame,
      profiles: Dataset[Profile],
      scheme: Similarity.Scheme = Similarity.Scheme.JaccardTokens,
      threshold: Double = 0.5): DataFrame =
    scorePairs(candidates, profiles, scheme).where(col("score") >= threshold)
}
