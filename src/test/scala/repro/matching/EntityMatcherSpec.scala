package repro.matching

import repro.SparkSpec
import repro.core.{Profile, Profiles}

class EntityMatcherSpec extends SparkSpec {
  import spark.implicits._

  private lazy val profiles = Profiles.fromSeq(spark, Seq(
    Profile(1, 1, Map("name" -> "sony tv", "desc" -> "black hd")),
    Profile(2, 1, Map("name" -> "bosch washer", "desc" -> "white")),
    Profile(3, 2, Map("name" -> "sony tv", "desc" -> "black hd")),
    Profile(4, 2, Map("name" -> "unrelated", "desc" -> "thing"))))

  test("profileText concatenates values in attribute-name order") {
    val texts = EntityMatcher.profileText(profiles).as[(Long, String)].collect().toMap
    assert(texts(1L) == "black hd sony tv") // desc < name alphabetically
  }

  test("scorePairs computes the chosen similarity for each candidate") {
    val cands = Seq((1L, 3L), (1L, 4L)).toDF("p1", "p2")
    val scores = EntityMatcher
      .scorePairs(cands, profiles, Similarity.Scheme.JaccardTokens)
      .as[(Long, Long, Double)].collect().map(r => (r._1, r._2) -> r._3).toMap
    assert(scores((1L, 3L)) == 1.0)
    assert(scores((1L, 4L)) == 0.0)
  }

  test("matches keeps only pairs at or above threshold") {
    val cands = Seq((1L, 3L), (1L, 4L), (2L, 4L)).toDF("p1", "p2")
    val m = EntityMatcher.matches(cands, profiles, threshold = 0.5)
      .select("p1", "p2").as[(Long, Long)].collect().toSet
    assert(m == Set((1L, 3L)))
  }

  test("threshold 0 keeps every candidate with its score") {
    val cands = Seq((1L, 3L), (1L, 4L)).toDF("p1", "p2")
    assert(EntityMatcher.matches(cands, profiles, threshold = 0.0).count() == 2)
  }

  test("no candidates yields no matches") {
    val cands = Seq.empty[(Long, Long)].toDF("p1", "p2")
    assert(EntityMatcher.matches(cands, profiles).count() == 0)
  }

  test("cosine and levenshtein schemes run end to end") {
    val cands = Seq((1L, 3L)).toDF("p1", "p2")
    val cos = EntityMatcher.scorePairs(cands, profiles, Similarity.Scheme.CosineTF)
      .as[(Long, Long, Double)].collect().head._3
    val lev = EntityMatcher
      .scorePairs(cands, profiles, Similarity.Scheme.NormalizedLevenshtein)
      .as[(Long, Long, Double)].collect().head._3
    assert(math.abs(cos - 1.0) < 1e-9)
    assert(lev == 1.0)
  }

  test("scorePairs equals Similarity.score on the two profile texts, for every candidate and scheme") {
    import repro.pipeline.SparkERPipeline
    import repro.pipeline.SparkERPipeline._
    val ds = repro.data.ERData.abtBuy(spark, nShared = 30, nOnlyA = 3, nOnlyB = 3)
    val cands = SparkERPipeline.blocker(ds.profiles,
      SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning)).candidates
    val pairs = cands.as[(Long, Long)].collect().toSet
    val texts = EntityMatcher.profileText(ds.profiles).as[(Long, String)].collect().toMap
    for (scheme <- Seq(Similarity.Scheme.JaccardTokens, Similarity.Scheme.CosineTF,
        Similarity.Scheme.NormalizedLevenshtein)) {
      val scored = EntityMatcher.scorePairs(cands, ds.profiles, scheme)
        .as[(Long, Long, Double)].collect()
      assert(scored.length == pairs.size && scored.map(r => (r._1, r._2)).toSet == pairs)
      for ((p1, p2, s) <- scored)
        assert(s == Similarity.score(scheme, texts(p1), texts(p2)), s"$scheme ($p1, $p2)")
    }
  }

  test("scores are in [0,1] over ER candidates") {
    val ds = repro.data.ERData.abtBuy(spark, nShared = 30, nOnlyA = 3, nOnlyB = 3)
    val cands = ds.groundTruth.select(
      org.apache.spark.sql.functions.col("idA") as "p1",
      org.apache.spark.sql.functions.col("idB") as "p2")
    val scores = EntityMatcher
      .scorePairs(cands, ds.profiles, Similarity.Scheme.JaccardTokens)
      .select("score").as[Double].collect()
    assert(scores.forall(s => s >= 0.0 && s <= 1.0))
    assert(scores.count(_ > 0.3) > scores.length / 2, "GT pairs should look similar")
  }
}
