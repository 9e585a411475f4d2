package repro.debug

import repro.SparkSpec
import repro.core.Tokenizer
import repro.data.ERData

class SamplerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val ds = ERData.abtBuy(spark, nShared = 50, nOnlyA = 5, nOnlyB = 5)

  test("sample yields at most K seeds with at most k companions each") {
    val s = Sampler.sample(ds.profiles, K = 6, k = 4).cache()
    val perSeed = s.groupBy("pid").count().as[(Long, Long)].collect().toMap
    assert(perSeed.size <= 6)
    assert(perSeed.values.forall(_ <= 4))
  }

  test("half the companions are overlap picks, half random") {
    val s = Sampler.sample(ds.profiles, K = 5, k = 6).cache()
    val kinds = s.groupBy("kind").count().as[(String, Long)].collect().toMap
    assert(kinds.keySet == Set("overlap", "random"))
    assert(kinds("random") == 5L * 3)
    assert(kinds("overlap") <= 5L * 3)
  }

  test("overlap picks actually share tokens with their seed") {
    val byId = ds.profiles.collect().map(p => p.id -> p).toMap
    val s = Sampler.sample(ds.profiles, K = 5, k = 6)
      .where($"kind" === "overlap").as[(Long, Long, String)].collect()
    assert(s.nonEmpty)
    s.foreach { case (seedPid, other, _) =>
      val ta = byId(seedPid).attributes.values.flatMap(Tokenizer.tokenize(_)).toSet
      val tb = byId(other).attributes.values.flatMap(Tokenizer.tokenize(_)).toSet
      assert((ta & tb).nonEmpty, s"pair ($seedPid,$other) shares no token")
    }
  }

  test("sampling is deterministic for a fixed seed") {
    val s1 = Sampler.sample(ds.profiles, 4, 4, seed = 3L).collect().toSet
    val s2 = Sampler.sample(ds.profiles, 4, 4, seed = 3L).collect().toSet
    assert(s1 == s2)
  }

  test("different seeds select different samples") {
    val s1 = Sampler.sample(ds.profiles, 4, 4, seed = 3L).collect().toSet
    val s2 = Sampler.sample(ds.profiles, 4, 4, seed = 4L).collect().toSet
    assert(s1 != s2)
  }

  test("no self-pairs in the sample") {
    val s = Sampler.sample(ds.profiles, 8, 4).as[(Long, Long, String)].collect()
    assert(s.forall { case (a, b, _) => a != b })
  }

  test("sample leaves no cached plan behind") {
    // Other tests share the session and cache their samples.
    spark.catalog.clearCache()
    Sampler.sample(ds.profiles, 4, 4).collect()
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("rejects non-positive K or k") {
    intercept[IllegalArgumentException](Sampler.sample(ds.profiles, 0, 4))
    intercept[IllegalArgumentException](Sampler.sample(ds.profiles, 4, 0))
    // k = 1 is positive, but k / 2 = 0 companions would leave the sample empty.
    val e = intercept[IllegalArgumentException](Sampler.sample(ds.profiles, 4, 1))
    assert(e.getMessage.contains("k=1"), e.getMessage)
  }
}
