package repro.lsh

import repro.SparkSpec
import repro.core.{Profile, Profiles}
import repro.data.ERData

import java.lang.Double.doubleToRawLongBits

class EntropySpec extends SparkSpec {

  test("uniform distribution over 4 symbols has entropy 2 bits") {
    assert(math.abs(Entropy.shannon(Seq(5L, 5L, 5L, 5L)) - 2.0) < 1e-12)
  }

  test("uniform over n symbols has entropy log2 n") {
    for (n <- Seq(2, 8, 16)) {
      assert(math.abs(Entropy.shannon(Seq.fill(n)(3L)) - math.log(n) / math.log(2)) < 1e-12)
    }
  }

  test("single symbol has entropy 0") {
    assert(Entropy.shannon(Seq(42L)) == 0.0)
  }

  test("empty histogram has entropy 0") {
    assert(Entropy.shannon(Seq.empty) == 0.0)
  }

  test("zero counts are ignored") {
    assert(Entropy.shannon(Seq(5L, 0L, 5L)) == 1.0)
  }

  test("the sum does not depend on the order of the counts") {
    val counts = Seq(1L, 3L, 7L, 2L, 9L, 4L, 1L, 12L, 5L, 6L, 2L, 8L)
    val bits = counts.permutations.take(200).map(c => doubleToRawLongBits(Entropy.shannon(c))).toSet
    assert(bits.size == 1)
  }

  test("skewed distribution has lower entropy than uniform") {
    assert(Entropy.shannon(Seq(97L, 1L, 1L, 1L)) < Entropy.shannon(Seq(25L, 25L, 25L, 25L)))
  }

  test("cluster entropies: varied attribute beats constant attribute") {
    val profiles = Profiles.fromSeq(spark, (1 to 40).map { i =>
      Profile(i.toLong, 1, Map("varied" -> s"value$i unique$i", "const" -> "same same"))
    })
    val kv = Profiles.toKV(profiles)
    val parts = Map("1::varied" -> 1, "1::const" -> 2)
    val ent = Entropy.clusterEntropies(kv, parts)
    assert(ent(1) > ent(2))
    assert(ent(2) == 0.0) // one repeated token
  }

  test("normalization maps the max cluster to 1.0") {
    val profiles = Profiles.fromSeq(spark, (1 to 20).map { i =>
      Profile(i.toLong, 1, Map("varied" -> s"v$i", "const" -> "same"))
    })
    val ent = Entropy.clusterEntropies(
      Profiles.toKV(profiles), Map("1::varied" -> 1, "1::const" -> 2))
    assert(math.abs(ent.values.max - 1.0) < 1e-12)
    assert(ent(1) == 1.0)
  }

  test("attributes missing from the partition map fall into cluster 0") {
    val profiles = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("known" -> "a b c", "unknown" -> "x y z"))))
    val ent = Entropy.clusterEntropies(Profiles.toKV(profiles), Map("1::known" -> 1))
    assert(ent.contains(AttributePartitioner.BlobCluster))
    assert(ent.contains(1))
  }

  test("entropy uses occurrences, not distinct values") {
    // Both clusters have the distinct tokens {x, y}; only the counts differ.
    val profiles = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("skew" -> "x x x x x x x x y", "even" -> "x y"))))
    val ent = Entropy.clusterEntropies(
      Profiles.toKV(profiles), Map("1::skew" -> 1, "1::even" -> 2))
    assert(ent(2) == 1.0)
    assert(math.abs(ent(1) - Entropy.shannon(Seq(8L, 1L)) / Entropy.shannon(Seq(1L, 1L))) < 1e-12)
    assert(ent(1) < ent(2))
  }

  test("entropies are identical under any shuffle partition count") {
    val kv = Profiles.toKV(ERData.abtBuy(spark, 1000, 100, 100, 42).profiles).localCheckpoint()
    val parts = AttributePartitioner.partition(
      AttributePartitioner.attributeTokenSets(kv), AttributePartitioner.Params(threshold = 0.3))
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def bits(ent: Map[Int, Double]) = ent.map { case (c, e) => c -> doubleToRawLongBits(e) }
    val byLayout =
      try Seq(1, 7, 16, 64).map { n =>
        spark.conf.set(key, n.toLong)
        n -> bits(Entropy.clusterEntropies(kv, parts))
      }
      finally spark.conf.set(key, saved)
    val (_, first) = byLayout.head
    assert(first.size > 1)
    byLayout.foreach { case (n, ent) => assert(ent == first, s"$n partitions") }
  }
}
