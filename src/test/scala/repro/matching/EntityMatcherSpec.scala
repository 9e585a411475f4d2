package repro.matching

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import repro.SparkSpec
import repro.core.{ERMode, Profile, Profiles}
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline._

import java.util.concurrent.atomic.AtomicInteger

class EntityMatcherSpec extends SparkSpec with AdaptiveSparkPlanHelper {
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

  test("a null value adds nothing to the profile text, so shared nulls score 0") {
    val withNulls = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("name" -> "sony tv", "color" -> null)),
      Profile(2, 2, Map("name" -> "bosch washer", "color" -> null))))
    val texts = EntityMatcher.profileText(withNulls).as[(Long, String)].collect().toMap
    assert(texts == Map(1L -> "sony tv", 2L -> "bosch washer"))
    val scored = EntityMatcher
      .scorePairs(Seq((1L, 2L)).toDF("p1", "p2"), withNulls, Similarity.Scheme.JaccardTokens)
      .as[(Long, Long, Double)].collect()
    assert(scored.toSeq == Seq((1L, 2L, 0.0)))
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

  test("scorePairs fails above the signature bound, with the profile count") {
    val cands = Seq((1L, 3L)).toDF("p1", "p2")
    val e = intercept[IllegalArgumentException](
      EntityMatcher.scorePairs(cands, profiles, Similarity.Scheme.JaccardTokens, bound = 3))
    assert(e.getMessage.contains("at most 3") && e.getMessage.contains("4 profiles"), e.getMessage)
    assert(EntityMatcher.scorePairs(cands, profiles, Similarity.Scheme.JaccardTokens, bound = 4)
      .count() == 1)
  }

  test("with the profile count known, the signatures are read in one job") {
    val spread = spark.createDataset(spark.sparkContext.parallelize(Seq(
      Profile(1, 1, Map("name" -> "sony tv")),
      Profile(2, 1, Map("name" -> "bosch washer")),
      Profile(3, 2, Map("name" -> "sony tv")),
      Profile(4, 2, Map("name" -> "bosch dryer"))), 4))
    val cands = Seq((1L, 3L), (2L, 4L)).toDF("p1", "p2")
    def jobs(read: => Unit): Int = {
      val group = "signature-read"
      val started = new AtomicInteger
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit =
          if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group))
            started.incrementAndGet()
      }
      val sc = spark.sparkContext
      sc.addSparkListener(listener)
      sc.setJobGroup(group, group)
      try read
      finally {
        sc.clearJobGroup()
        ListenerBusDrain.drain(sc)
        sc.removeSparkListener(listener)
      }
      started.get
    }
    val scheme = Similarity.Scheme.JaccardTokens
    assert(jobs(EntityMatcher.scorePairs(cands, spread, scheme, bound = 4, nProfiles = Some(4L))) == 1)
    // Without the count, the limit-bounded read runs as an incremental take.
    assert(jobs(EntityMatcher.scorePairs(cands, spread, scheme)) > 1)
    val e = intercept[IllegalArgumentException](
      EntityMatcher.scorePairs(cands, spread, scheme, bound = 3, nProfiles = Some(4L)))
    assert(e.getMessage.contains("at most 3") && e.getMessage.contains("4 profiles"), e.getMessage)
  }

  test("a candidate with an end that is not a profile is dropped") {
    val cands = Seq((1L, 3L), (1L, 99L), (99L, 3L), (98L, 99L)).toDF("p1", "p2")
    val scored = EntityMatcher.scorePairs(cands, profiles, Similarity.Scheme.JaccardTokens)
      .as[(Long, Long, Double)].collect()
    assert(scored.toSeq == Seq((1L, 3L, 1.0)))
  }

  test("dirty-ER candidates score as Similarity.score on the two profile texts") {
    val ds = repro.data.ERData.dirty(spark, nShared = 30)
    val cands = SparkERPipeline.blocker(ds.profiles, SparkERConfig(mode = ERMode.Dirty,
      schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning)).candidates
    val texts = EntityMatcher.profileText(ds.profiles).as[(Long, String)].collect().toMap
    val pairs = cands.as[(Long, Long)].collect()
    assert(pairs.nonEmpty && pairs.forall { case (p1, p2) => p1 < p2 })
    for (scheme <- Seq(Similarity.Scheme.JaccardTokens, Similarity.Scheme.CosineTF)) {
      val scored = EntityMatcher.scorePairs(cands, ds.profiles, scheme)
        .as[(Long, Long, Double)].collect()
      assert(scored.map(r => (r._1, r._2)).sorted.toSeq == pairs.sorted.toSeq)
      for ((p1, p2, s) <- scored)
        assert(s == Similarity.score(scheme, texts(p1), texts(p2)), s"$scheme ($p1, $p2)")
    }
  }

  test("scoring checkpointed candidates plans no shuffle") {
    val cands = Seq((1L, 3L), (1L, 4L), (2L, 4L)).toDF("p1", "p2").localCheckpoint()
    val scored = EntityMatcher.matches(cands, profiles, threshold = 0.5)
    val plan = scored.queryExecution.executedPlan
    assert(collect(plan) { case e: ShuffleExchangeExec => e }.isEmpty, plan.toString)
    assert(scored.select("p1", "p2").as[(Long, Long)].collect().toSeq == Seq((1L, 3L)))
  }
}
