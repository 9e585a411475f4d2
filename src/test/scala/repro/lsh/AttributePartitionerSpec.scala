package repro.lsh

import org.apache.spark.sql.functions.count
import org.scalacheck.Gen
import repro.{Props, SparkSpec}
import repro.core.{Profile, Profiles, RandomBlocks}
import repro.data.ERData
import repro.lsh.AttributePartitioner.{ClusterTable, Params, TokenCounts, partition}

import java.lang.Double.doubleToRawLongBits

class AttributePartitionerSpec extends SparkSpec with Props {
  import spark.implicits._

  /** Handmade token sets with controlled similarities. */
  private val sets: Map[String, Set[String]] = Map(
    "1::name" -> (1 to 100).map(i => s"n$i").toSet,
    "2::name" -> ((1 to 85).map(i => s"n$i").toSet ++ (1 to 15).map(i => s"x$i")),
    "1::price" -> (1 to 40).map(i => s"p$i").toSet,
    "2::price" -> ((1 to 36).map(i => s"p$i").toSet + "q1" + "q2" + "q3" + "q4"),
    "1::junk" -> (1 to 50).map(i => s"j$i").toSet)

  test("similar attributes cluster together; dissimilar go to the blob") {
    val parts = partition(sets, Params(threshold = 0.3))
    assert(parts("1::name") == parts("2::name"))
    assert(parts("1::price") == parts("2::price"))
    assert(parts("1::name") != parts("1::price"))
    assert(parts("1::junk") == AttributePartitioner.BlobCluster)
  }

  test("threshold 1.0 sends every attribute to the blob (Fig 6a)") {
    val parts = partition(sets, Params(threshold = 1.0))
    assert(parts.values.forall(_ == AttributePartitioner.BlobCluster))
  }

  test("partitioning is deterministic") {
    val p1 = partition(sets, Params(threshold = 0.3))
    val p2 = partition(sets, Params(threshold = 0.3))
    assert(p1 == p2)
  }

  test("clusters are non-overlapping and ids are 1..n") {
    val parts = partition(sets, Params(threshold = 0.3))
    val real = parts.values.filter(_ != 0).toSet
    assert(real == (1 to real.size).toSet)
  }

  test("identical attribute sets cluster even at threshold 1.0 minus eps") {
    val twin = Map(
      "1::a" -> Set("t1", "t2", "t3"),
      "2::a" -> Set("t1", "t2", "t3"),
      "1::b" -> Set("zz"))
    val parts = partition(twin, Params(threshold = 0.99))
    assert(parts("1::a") == parts("2::a"))
    assert(parts("1::a") != 0)
    assert(parts("1::b") == 0)
  }

  test("transitive closure merges chains through a shared best match") {
    // a≈b, b≈c but a and c less similar: closure puts all three together.
    val chain = Map(
      "1::a" -> (1 to 60).map(i => s"t$i").toSet,
      "2::b" -> (20 to 80).map(i => s"t$i").toSet,
      "1::c" -> (40 to 100).map(i => s"t$i").toSet,
      "2::z" -> Set("other"))
    val parts = partition(chain, Params(threshold = 0.2))
    assert(parts("1::a") == parts("2::b"))
    assert(parts("2::b") == parts("1::c"))
  }

  test("attributeTokenSets extracts distinct tokens per qualified attribute") {
    val kv = Profiles.toKV(repro.Fixtures.figure1(spark))
    val ts = AttributePartitioner.attributeTokenSets(kv)
    assert(ts("1::name") == Set("blast", "sparker"))
    assert(ts("2::author") == Set("simonini", "gagliardelli"))
    assert(ts("1::abstract") == Set("blocking", "simonini"))
  }

  test("ER data: names and descriptions cluster, prices form their own cluster") {
    val ds = ERData.abtBuy(spark, nShared = 150, nOnlyA = 15, nOnlyB = 15)
    val parts = partition(
      AttributePartitioner.attributeTokenSets(Profiles.toKV(ds.profiles)),
      Params(threshold = 0.3))
    assert(parts("1::name") == parts("2::name"), s"parts=$parts")
    assert(parts("1::price") == parts("2::price"), s"parts=$parts")
    assert(parts("1::price") != parts("1::name"), s"parts=$parts")
    assert(parts("1::price") != AttributePartitioner.BlobCluster, s"parts=$parts")
  }

  test("ER data at threshold 1.0 degenerates to schema-agnostic (all blob)") {
    val ds = ERData.abtBuy(spark, nShared = 80, nOnlyA = 8, nOnlyB = 8)
    val parts = partition(
      AttributePartitioner.attributeTokenSets(Profiles.toKV(ds.profiles)),
      Params(threshold = 1.0))
    assert(parts.values.forall(_ == AttributePartitioner.BlobCluster))
  }

  test("clustersDF carries entropy per attribute row") {
    val ds = ERData.abtBuy(spark, nShared = 80, nOnlyA = 8, nOnlyB = 8)
    val kv = Profiles.toKV(ds.profiles)
    val df = AttributePartitioner.clustersDF(spark, kv, Params(threshold = 0.3))
    assert(df.columns.toSeq == Seq("attrKey", "cluster", "entropy"))
    assert(df.count() == 7) // 3 attrs in A + 4 in B
    val rows = df.collect().map(r => (r.getString(0), r.getInt(1), r.getDouble(2)))
    assert(rows.forall { case (_, _, e) => e > 0 && e <= 1.0 })
  }

  test("ER data: name/description cluster entropy exceeds price cluster entropy") {
    val ds = ERData.abtBuy(spark, nShared = 150, nOnlyA = 15, nOnlyB = 15)
    val kv = Profiles.toKV(ds.profiles)
    val df = AttributePartitioner.clustersDF(spark, kv, Params(threshold = 0.3))
    val byAttr = df.collect().map(r => r.getString(0) -> r.getDouble(2)).toMap
    assert(byAttr("1::name") > byAttr("1::price"))
  }

  test("manualClustersDF reflects the user-given partitioning") {
    val ds = ERData.abtBuy(spark, nShared = 40, nOnlyA = 4, nOnlyB = 4)
    val kv = Profiles.toKV(ds.profiles)
    val manual = repro.experiments.Experiments.manualNameDescSplit
    val df = AttributePartitioner.manualClustersDF(spark, kv, manual)
    val got = df.collect().map(r => r.getString(0) -> r.getInt(1)).toMap
    assert(got == manual)
  }

  test("rejects non-positive thresholds") {
    intercept[IllegalArgumentException](partition(sets, Params(threshold = 0.0)))
  }

  /** Random profiles, each given a `void` attribute that is null, empty or
    * only separators in every profile that has it, so it has no token; a
    * manual map of their attributes that also names `3::ghost`, which no
    * profile has; and an LSH threshold.
    */
  private val genCase = for {
    input <- RandomBlocks.genProfiles
    voids <- Gen.listOfN(input._1.size, Gen.oneOf(None, Some(null), Some(""), Some(" - ")))
    ghost <- Gen.choose(0, 3)
    threshold <- Gen.oneOf(Gen.oneOf(0.1, 0.3, 1.0), Gen.choose(0.05, 1.0))
  } yield {
    val withVoid = input._1.zip(voids).map { case (p, v) =>
      v.fold(p)(value => p.copy(attributes = p.attributes + ("void" -> value)))
    }
    (withVoid, input._2.toMap + ("3::ghost" -> ghost), threshold)
  }

  private def bits(table: ClusterTable) =
    table.map { case (attrKey, (c, e)) => attrKey -> (c, doubleToRawLongBits(e)) }

  /** The one-pass path over `profiles` in 1, 3 and shuffled partitions
    * against the KV reference, in both modes.
    */
  private def checkAgainstKV(profiles: Seq[Profile], manual: Map[String, Int], threshold: Double): Unit = {
    val kv = Profiles.toKV(Profiles.fromSeq(spark, profiles)).localCheckpoint()
    val kvCounts: TokenCounts = kv.groupBy("attrKey", "token").agg(count("*")).as[(String, String, Long)]
      .collect().groupBy(_._1).map { case (a, rows) => a -> rows.map(r => r._2 -> r._3).toMap }
    val loose = bits(AttributePartitioner.clusterTable(kv, Params(threshold)))
    val manualTable = bits(AttributePartitioner.manualClusterTable(kv, manual))
    assert(!manualTable.keySet.exists(_.endsWith("::void")))
    // Alone in cluster 3, the absent attribute has no token, so its entropy falls back.
    if (manual.get("3::ghost").contains(3))
      assert(manualTable("3::ghost") == (3, doubleToRawLongBits(1.0)))
    for (ps <- RandomBlocks.profileLayouts(spark, profiles, profiles.size)) {
      val clue = s"threshold=$threshold partitions=${ps.rdd.getNumPartitions}"
      val counts = Profiles.tokenCounts(ps)
      assert(counts == kvCounts, clue)
      assert(bits(AttributePartitioner.clusterTable(counts, Params(threshold))) == loose, clue)
      assert(bits(AttributePartitioner.manualClusterTable(counts, manual)) == manualTable, clue)
    }
  }

  test("property: the one-pass cluster table equals the KV reference bit for bit") {
    forAllG(genCase, n = 10) { case (profiles, manual, threshold) =>
      checkAgainstKV(profiles, manual, threshold)
    }
  }

  test("the one-pass cluster table of empty input equals the KV reference") {
    val manual = Map("1::name" -> 1, "3::ghost" -> 2)
    checkAgainstKV(Seq.empty, manual, 0.3)
    val counts = Profiles.tokenCounts(Profiles.fromSeq(spark, Seq.empty[Profile]))
    assert(counts.isEmpty)
    assert(AttributePartitioner.clusterTable(counts, Params()).isEmpty)
    assert(AttributePartitioner.manualClusterTable(counts, manual) == Map(
      "1::name" -> (1, 1.0), "3::ghost" -> (2, 1.0)))
  }
}
