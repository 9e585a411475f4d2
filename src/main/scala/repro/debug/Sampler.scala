package repro.debug

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Profile, Profiles, TokenBlocking}

/** Debug-mode sampling (§3): the iterative tuning loop cannot run on the
  * full input, so — following Magellan's recipe, which the paper adopts —
  * pick K random profiles, and for each of them pick k/2 profiles sharing
  * many tokens (likely matches) plus k/2 random profiles (likely
  * non-matches).
  *
  * K and k trade sample size for debugging time, exactly as in the paper.
  */
object Sampler {

  /** @return (pid, other, kind) rows, kind ∈ {"overlap", "random"}. */
  def sample(
      profiles: Dataset[Profile],
      K: Int,
      k: Int,
      seed: Long = 11L): DataFrame = {
    require(K > 0, s"K must be positive, got K=$K")
    require(k >= 2, s"k must be at least 2, or k/2 keeps no companion, got k=$k")
    val spark = profiles.sparkSession
    import spark.implicits._

    val ids = profiles.map(_.id).toDF("pid")
    val seeds = ids.orderBy(md5(concat(col("pid").cast("string"), lit(seed.toString))))
      .limit(K)

    // Likely matches: rank all other profiles by shared-token count.
    val tokens = TokenBlocking.schemaAgnostic(Profiles.toKV(profiles)).select("key", "pid")
    val seedTokens = tokens.join(seeds, "pid")
      .select(col("pid") as "sp", col("key"))
    val overlap = seedTokens
      .join(tokens.withColumnRenamed("pid", "other"), "key")
      .where(col("other") =!= col("sp"))
      .groupBy("sp", "other")
      .agg(count(lit(1)) as "shared")
    val topOverlap = overlap
      .withColumn(
        "rnk",
        row_number().over(
          Window.partitionBy("sp").orderBy(col("shared").desc, col("other").asc)))
      .where(col("rnk") <= k / 2)
      .select(col("sp") as "pid", col("other"), lit("overlap") as "kind")

    // Likely non-matches: deterministic pseudo-random picks per seed profile.
    val randomPicks = seeds
      .crossJoin(ids.withColumnRenamed("pid", "other"))
      .where(col("other") =!= col("pid"))
      .withColumn(
        "rnk",
        row_number().over(
          Window.partitionBy("pid").orderBy(
            md5(concat(col("pid"), lit("/"), col("other"), lit(seed.toString))))))
      .where(col("rnk") <= k / 2)
      .select(col("pid"), col("other"), lit("random") as "kind")

    topOverlap.unionAll(randomPicks)
  }
}
