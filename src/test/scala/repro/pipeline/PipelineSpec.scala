package repro.pipeline

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{ERMode, Profile, Profiles}
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind}
import repro.data.ERData
import repro.eval.Metrics
import repro.experiments.Experiments
import repro.lsh.AttributePartitioner
import repro.pipeline.SparkERPipeline._

import java.io.File
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** End-to-end behaviour on the synthetic Abt-Buy: these are the
  * integration-level facts the demo walkthrough (Fig 6) relies on.
  */
class PipelineSpec extends SparkSpec {

  private lazy val ds = ERData.abtBuy(spark, nShared = 150, nOnlyA = 15, nOnlyB = 15)

  private lazy val agnostic = SparkERPipeline.blocker(
    ds.profiles,
    SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning))

  private lazy val loose = SparkERPipeline.blocker(
    ds.profiles,
    SparkERConfig(
      schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
      pruning = PruningStrategy.NoPruning))

  private lazy val blast = SparkERPipeline.blocker(
    ds.profiles,
    SparkERConfig(
      schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
      useEntropy = true,
      pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg)))

  test("schema-agnostic blocking reaches high recall") {
    val m = Metrics.evaluatePairs(agnostic.candidates, ds.groundTruth)
    assert(m.recall >= 0.95, s"recall was ${m.recall}")
  }

  test("schema-agnostic blocking has low precision (the paper's premise)") {
    val m = Metrics.evaluatePairs(agnostic.candidates, ds.groundTruth)
    assert(m.precision < 0.2, s"precision was ${m.precision}")
  }

  test("loose-schema blocking cuts candidates while keeping recall (Fig 6b)") {
    val ma = Metrics.evaluatePairs(agnostic.candidates, ds.groundTruth)
    val ml = Metrics.evaluatePairs(loose.candidates, ds.groundTruth)
    assert(ml.pairs < ma.pairs, s"loose=${ml.pairs} agnostic=${ma.pairs}")
    assert(ml.recall >= ma.recall - 0.05, s"loose recall ${ml.recall} vs ${ma.recall}")
  }

  test("meta-blocking with entropy sharply cuts candidates at good recall (Fig 6e)") {
    val ml = Metrics.evaluatePairs(loose.candidates, ds.groundTruth)
    val mb = Metrics.evaluatePairs(blast.candidates, ds.groundTruth)
    assert(mb.pairs * 2 < ml.pairs, s"blast=${mb.pairs} loose=${ml.pairs}")
    assert(mb.recall >= 0.85, s"blast recall was ${mb.recall}")
    assert(mb.precision > ml.precision)
  }

  test("blocker reports block counts") {
    assert(agnostic.nBlocks > 0)
    assert(loose.nBlocks > 0)
  }

  test("full run produces a complete clustering") {
    val res = SparkERPipeline.run(
      ds.profiles,
      SparkERConfig(
        schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
        useEntropy = true,
        pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
        matcherThreshold = 0.35))
    assert(res.clusters.count() == ds.nA + ds.nB)
    assert(res.clusters.select("pid").distinct().count() == ds.nA + ds.nB)
  }

  test("end-to-end clustering quality beats 0.5 F1 on the synthetic task") {
    val res = SparkERPipeline.run(
      ds.profiles,
      SparkERConfig(
        schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
        useEntropy = true,
        pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg),
        matcherThreshold = 0.35))
    val cm = Metrics.evaluateClusters(res.clusters, ds.groundTruth)
    assert(cm.f1 > 0.5, s"cluster F1 was ${cm.f1}")
  }

  test("manual name/description split loses more pairs than the auto split (Fig 6c/d)") {
    val manual = SparkERPipeline.blocker(
      ds.profiles,
      SparkERConfig(
        schemaMode = SchemaMode.Manual(repro.experiments.Experiments.manualNameDescSplit),
        pruning = PruningStrategy.NoPruning))
    val mm = Metrics.evaluatePairs(manual.candidates, ds.groundTruth)
    val ml = Metrics.evaluatePairs(loose.candidates, ds.groundTruth)
    assert(mm.lost > ml.lost, s"manual lost ${mm.lost}, auto lost ${ml.lost}")
  }

  test("CEP and CNP pruning run end to end") {
    val cep = SparkERPipeline.blocker(ds.profiles,
      SparkERConfig(pruning = PruningStrategy.Cep(500)))
    assert(cep.candidates.count() == 500)
    val cnp = SparkERPipeline.blocker(ds.profiles,
      SparkERConfig(pruning = PruningStrategy.Cnp(2)))
    assert(cnp.candidates.count() > 0)
  }

  test("WEP pruning runs end to end and prunes something") {
    val wep = SparkERPipeline.blocker(ds.profiles,
      SparkERConfig(pruning = PruningStrategy.Wep()))
    assert(wep.candidates.count() < loose.candidates.count())
  }

  test("blocker and run leave no cached plan behind; reused outputs are checkpoints") {
    val cacheManager = spark.sharedState.cacheManager
    def usesCache(df: DataFrame) =
      df.queryExecution.withCachedData.exists(_.isInstanceOf[InMemoryRelation])
    def isCheckpoint(df: DataFrame) = df.queryExecution.analyzed.isInstanceOf[LogicalRDD]
    // Other suites share the session and may have cached their own inputs.
    spark.catalog.clearCache()

    val b = SparkERPipeline.blocker(ds.profiles,
      SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning))
    assert(cacheManager.isEmpty)
    val r = SparkERPipeline.run(ds.profiles, SparkERConfig(
      schemaMode = SchemaMode.Loose(AttributePartitioner.Params(threshold = 0.3)),
      pruning = PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.5), NodeCombine.Avg)))
    assert(cacheManager.isEmpty)

    val returned = Seq(b.assignments, b.candidates, r.blocker.assignments,
      r.blocker.candidates, r.matches, r.clusters) ++ r.blocker.clusters
    returned.foreach(df => assert(!usesCache(df), df.queryExecution.withCachedData))
    Seq(b.candidates, r.blocker.candidates, r.matches)
      .foreach(df => assert(isCheckpoint(df), df.queryExecution.analyzed))
  }

  test("a blocker call shuffles in two stages: the id check and the block-size aggregate") {
    val group = "blocker-shuffles"
    val inGroup = mutable.Set.empty[Int]
    val written = mutable.ArrayBuffer.empty[(String, Long)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = inGroup.synchronized {
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group))
          inGroup ++= e.stageIds
      }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = inGroup.synchronized {
        val bytes = e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
        if (inGroup(e.stageInfo.stageId) && bytes > 0) written += e.stageInfo.name -> bytes
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    sc.setJobGroup(group, group)
    try SparkERPipeline.blocker(ds.profiles,
      SparkERConfig(schemaMode = SchemaMode.Agnostic, pruning = PruningStrategy.NoPruning))
    finally {
      sc.clearJobGroup()
      ListenerBusDrain.drain(sc)
      sc.removeSparkListener(listener)
    }
    assert(written.size == 2, written.mkString("\n"))
  }

  test("WEP on an empty edge set gives no candidates or matches and singleton clusters") {
    val wep = SparkERConfig(pruning = PruningStrategy.Wep())
    val empty = Profiles.fromSeq(spark, Seq.empty[Profile])
    val allPurged = wep.copy(purgeFactor = 1e-6) // every block exceeds the purge limit
    for ((profiles, cfg) <- Seq(empty -> wep, ds.profiles -> allPurged)) {
      val res = SparkERPipeline.run(profiles, cfg)
      assert(res.blocker.candidates.isEmpty)
      assert(res.matches.isEmpty)
      assert(res.clusters.count() == profiles.count())
      assert(res.clusters.where(col("entityId") =!= col("pid")).isEmpty)
    }
  }

  // For three-profile inputs: factor 1.0 so no block is purged.
  private val tiny = SparkERConfig(schemaMode = SchemaMode.Agnostic,
    pruning = PruningStrategy.NoPruning, purgeFactor = 1.0)

  test("duplicate profile ids are rejected before blocking") {
    // Unchecked, id 1 in both sources shares its blocks with itself: a self-match (1,1).
    val dup = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("name" -> "sony tv")),
      Profile(1, 2, Map("name" -> "sony tv")),
      Profile(2, 2, Map("name" -> "bosch washer"))))
    val e = intercept[IllegalArgumentException](SparkERPipeline.run(dup, tiny))
    assert(e.getMessage.contains("profile ids must be unique; id 1 "), e.getMessage)
  }

  test("clean-clean ER rejects a third source; dirty ER compares all three") {
    // Unchecked, sources 2 and 3 are both side B, so (2,3) is never compared.
    val three = Profiles.fromSeq(spark, Seq(
      Profile(1, 1, Map("name" -> "sony tv")),
      Profile(2, 2, Map("name" -> "bosch washer")),
      Profile(3, 3, Map("name" -> "bosch washer"))))
    val e = intercept[IllegalArgumentException](SparkERPipeline.run(three, tiny))
    assert(e.getMessage.contains("found source 3"), e.getMessage)
    val dirty = SparkERPipeline.run(three, tiny.copy(mode = ERMode.Dirty))
    val matched = dirty.matches.collect().map(r => (r.getAs[Long]("p1"), r.getAs[Long]("p2")))
    assert(matched.toSet == Set((2L, 3L)))
  }

  test("out-of-range configs are rejected at construction, naming the field") {
    def loose(p: AttributePartitioner.Params) = SparkERConfig(schemaMode = SchemaMode.Loose(p))
    def pruned(p: PruningStrategy) = SparkERConfig(pruning = p)
    val invalid: Seq[(String, () => SparkERConfig)] = Seq(
      "minTokenLength" -> (() => SparkERConfig(minTokenLength = 0)),
      "purgeFactor" -> (() => SparkERConfig(purgeFactor = 0.0)),
      "filterRatio" -> (() => SparkERConfig(filterRatio = 0.0)),
      "matcherThreshold" -> (() => SparkERConfig(matcherThreshold = 1.5)),
      "Loose threshold" -> (() => loose(AttributePartitioner.Params(threshold = 0.0))),
      "Cep k" -> (() => pruned(PruningStrategy.Cep(0))),
      "Cnp k" -> (() => pruned(PruningStrategy.Cnp(0))),
      "MaxFraction c" ->
        (() => pruned(PruningStrategy.Wnp(ThresholdKind.MaxFraction(0.0), NodeCombine.Avg))),
      "Wep factor" -> (() => pruned(PruningStrategy.Wep(-0.5))))
    invalid.foreach { case (field, make) =>
      val e = intercept[IllegalArgumentException](make())
      assert(e.getMessage.contains(field), e.getMessage)
    }
  }

  test("the configs of Experiments and perfbench/spec.json construct") {
    // Referencing Experiments initialises it, which constructs every config it runs.
    assert(Experiments.table1Configs.nonEmpty)
    assert(Experiments.table2Configs.map(_._2).contains(Experiments.blast))
    val workloads = new ObjectMapper().readTree(new File("perfbench/spec.json")).get("workloads")
    assert(workloads.size > 0)
    workloads.elements().asScala.foreach { w =>
      val c = w.get("config")
      val schema = c.get("schema")
      val p = c.get("pruning")
      SparkERConfig(
        schemaMode = schema.get("kind").asText match {
          case "Agnostic" => SchemaMode.Agnostic
          case "Loose" =>
            SchemaMode.Loose(AttributePartitioner.Params(threshold = schema.get("threshold").asDouble))
        },
        useEntropy = c.get("useEntropy").asBoolean,
        pruning = p.get("kind").asText match {
          case "NoPruning" => PruningStrategy.NoPruning
          case "Wnp" =>
            PruningStrategy.Wnp(ThresholdKind.MaxFraction(p.get("c").asDouble), NodeCombine.Avg)
        },
        matcherThreshold = c.get("matcherThreshold").asDouble)
    }
  }

  test("a manual partitioning blocks unmapped attributes in the blob") {
    val small = ERData.abtBuy(spark, nShared = 40, nOnlyA = 4, nOnlyB = 4)
    val partial = Map("1::name" -> 1, "2::name" -> 1)
    val attrKeys = Seq("1::name", "1::description", "1::price",
      "2::name", "2::description", "2::manufacturer", "2::price")
    val complete = attrKeys.map(_ -> AttributePartitioner.BlobCluster).toMap ++ partial
    def blocked(clusters: Map[String, Int]) = {
      val b = SparkERPipeline.blocker(small.profiles,
        SparkERConfig(schemaMode = SchemaMode.Manual(clusters), pruning = PruningStrategy.NoPruning))
      (b.assignments.collect().toSet, b.candidates.collect().toSet)
    }
    val (partialAsg, partialCand) = blocked(partial)
    val (completeAsg, completeCand) = blocked(complete)
    assert(partialAsg == completeAsg)
    assert(partialCand == completeCand)
    assert(partialAsg.exists(_.getAs[String]("key").endsWith("#0")))
  }

  test("dirty-mode pipeline runs") {
    val d = ERData.dirty(spark, nShared = 40)
    val res = SparkERPipeline.blocker(
      d.profiles,
      SparkERConfig(mode = ERMode.Dirty, schemaMode = SchemaMode.Agnostic))
    val m = Metrics.evaluatePairs(res.candidates, d.groundTruth)
    assert(m.recall > 0.8, s"dirty recall ${m.recall}")
  }
}
