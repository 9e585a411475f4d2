package repro.clustering

import org.apache.spark.sql.execution.joins.BroadcastHashJoinExec
import repro.SparkSpec
import repro.core.{Profile, Profiles}

class EntityClustererSpec extends SparkSpec {
  import spark.implicits._

  private lazy val profiles = Profiles.fromSeq(spark, Seq(
    Profile(1, 1, Map("a" -> "x")), Profile(2, 1, Map("a" -> "x")),
    Profile(3, 2, Map("a" -> "x")), Profile(4, 2, Map("a" -> "x")),
    Profile(5, 2, Map("a" -> "x"))))

  test("matched pairs collapse into one entity; unmatched become singletons") {
    val matches = Seq((1L, 3L), (3L, 2L)).toDF("p1", "p2")
    val clusters = EntityClusterer.cluster(matches, profiles)
      .as[(Long, Long)].collect().toMap
    assert(clusters(1L) == 1L && clusters(2L) == 1L && clusters(3L) == 1L)
    assert(clusters(4L) == 4L && clusters(5L) == 5L)
  }

  test("every profile appears exactly once in the clustering") {
    val matches = Seq((1L, 3L)).toDF("p1", "p2")
    val clusters = EntityClusterer.cluster(matches, profiles)
    assert(clusters.count() == 5)
    assert(clusters.select("pid").distinct().count() == 5)
  }

  test("transitivity assumption: chains merge (p1~p2, p2~p3 ⇒ one entity)") {
    val matches = Seq((1L, 4L), (4L, 2L), (2L, 5L)).toDF("p1", "p2")
    val clusters = EntityClusterer.cluster(matches, profiles)
      .as[(Long, Long)].collect().toMap
    assert(Set(1L, 2L, 4L, 5L).map(clusters) == Set(1L))
    assert(clusters(3L) == 3L)
  }

  test("no matches: everything is a singleton entity") {
    val empty = Seq.empty[(Long, Long)].toDF("p1", "p2")
    val clusters = EntityClusterer.cluster(empty, profiles)
      .as[(Long, Long)].collect().toMap
    assert(clusters == Map(1L -> 1L, 2L -> 2L, 3L -> 3L, 4L -> 4L, 5L -> 5L))
  }

  test("labels closed on the driver are broadcast to the profile ids, not shuffled with them") {
    val matches = Seq((1L, 3L)).toDF("p1", "p2")
    val plan = EntityClusterer.cluster(matches, profiles).queryExecution.sparkPlan
    assert(plan.collectFirst { case j: BroadcastHashJoinExec => j }.nonEmpty, plan.toString)
  }

  test("matches with score column are accepted") {
    val matches = Seq((1L, 3L, 0.9)).toDF("p1", "p2", "score")
    val clusters = EntityClusterer.cluster(matches, profiles)
      .as[(Long, Long)].collect().toMap
    assert(clusters(3L) == 1L)
  }
}
