package repro.matching

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.Profile

/** Entity Matcher (§2.2): scores the blocker's candidate pairs and labels
  * them match / no-match by threshold, producing the *similarity graph*
  * (matching pairs with their score) the clusterer consumes.
  *
  * Scoring computes the scheme's [[Similarity.signature]] once per profile
  * and joins the signatures, not the texts, to the candidates, so a
  * profile is tokenised once however many candidate pairs it is in; each
  * pair then costs one [[Similarity.compare]]. Signatures are plain
  * strings, not arrays, to keep the join's shuffles small (see
  * [[Similarity]] for the format and the measurement).
  */
object EntityMatcher {

  /** One text per profile: attribute values concatenated in attribute-name
    * order (schema-agnostic, deterministic).
    */
  def profileText(profiles: Dataset[Profile]): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    profiles
      .map(p => (p.id, p.attributes.toSeq.sortBy(_._1).map(_._2).mkString(" ")))
      .toDF("pid", "text")
  }

  /** Score every candidate pair. Output: (p1, p2, score), where score is
    * `Similarity.score(scheme, text1, text2)` on the two `profileText`s.
    */
  def scorePairs(
      candidates: DataFrame,
      profiles: Dataset[Profile],
      scheme: Similarity.Scheme): DataFrame = {
    val spark = profiles.sparkSession
    import spark.implicits._
    val signature = udf((text: String) => Similarity.signature(scheme, text))
    val sigs = profileText(profiles).select(col("pid"), signature(col("text")) as "sig")
    // A typed map rather than a UDF in a projection: the optimizer pushes
    // `matches`' threshold filter through a projection into the join
    // condition, which would run the comparison twice per pair.
    candidates
      .select("p1", "p2")
      .join(sigs.select(col("pid") as "p1", col("sig") as "sig1"), "p1")
      .join(sigs.select(col("pid") as "p2", col("sig") as "sig2"), "p2")
      .select("p1", "p2", "sig1", "sig2")
      .as[(Long, Long, String, String)]
      .map { case (p1, p2, a, b) => (p1, p2, Similarity.compare(scheme, a, b)) }
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
