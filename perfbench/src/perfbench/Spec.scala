package perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.apache.spark.sql.SparkSession
import repro.core.ERMode
import repro.core.MetaBlocking.{NodeCombine, ThresholdKind, WeightScheme}
import repro.data.ERData
import repro.lsh.AttributePartitioner
import repro.matching.Similarity
import repro.pipeline.SparkERPipeline.{PruningStrategy, SchemaMode, SparkERConfig}

import java.io.File
import scala.jdk.CollectionConverters._

/** Arguments of an `ERData` generator call. */
final case class Sizes(kind: String, nShared: Int, nOnlyA: Int, nOnlyB: Int) {

  /** Generate the input; the program receives only its `profiles`. */
  def generate(spark: SparkSession, seed: Long): ERData.ERDataset = kind match {
    case "abtBuy" => ERData.abtBuy(spark, nShared, nOnlyA, nOnlyB, seed)
  }
}

/** One benchmark workload, as `spec.json` describes it: the measured input
  * (`sizes`), a small input of the same shape for the smoke test, the
  * pipeline configuration and the digests of its outputs at `defaultSeed`.
  */
final case class Workload(
    name: String,
    sizes: Sizes,
    smoke: Sizes,
    defaultSeed: Long,
    config: SparkERConfig,
    digests: Map[String, String])

/** Reads `spec.json`: the workloads and the Spark settings. The same file
  * documents every metric.
  */
object Spec {
  final case class Spark(master: String, conf: Map[String, String])

  private def obj(n: JsonNode): Map[String, JsonNode] =
    n.properties().asScala.map(e => e.getKey -> e.getValue).toMap

  private def req(n: JsonNode, field: String): JsonNode =
    Option(n.get(field)).getOrElse(sys.error(s"spec.json: missing field '$field' in $n"))

  def load(path: String): JsonNode = new ObjectMapper().readTree(new File(path))

  def spark(root: JsonNode): Spark = {
    val s = req(root, "spark")
    Spark(req(s, "master").asText, obj(req(s, "conf")).map { case (k, v) => k -> v.asText })
  }

  def workload(root: JsonNode, name: String): Workload = {
    val all = obj(req(root, "workloads"))
    val w = all.getOrElse(name, sys.error(
      s"unknown workload '$name'; spec.json defines ${all.keys.toSeq.sorted.mkString(", ")}"))
    Workload(
      name = name,
      sizes = sizes(req(w, "generator")),
      smoke = sizes(req(w, "smoke_generator")),
      defaultSeed = req(w, "default_seed").asLong,
      config = config(req(w, "config")),
      digests = obj(req(w, "digests")).map { case (k, v) => k -> v.asText })
  }

  private def sizes(g: JsonNode): Sizes = Sizes(
    kind = req(g, "kind").asText,
    nShared = req(g, "nShared").asInt,
    nOnlyA = req(g, "nOnlyA").asInt,
    nOnlyB = req(g, "nOnlyB").asInt)

  private def config(c: JsonNode): SparkERConfig = {
    val mode = req(c, "mode").asText match {
      case "CleanClean" => ERMode.CleanClean
    }
    val schema = req(c, "schema")
    val schemaMode = req(schema, "kind").asText match {
      case "Agnostic" => SchemaMode.Agnostic
      case "Loose" =>
        SchemaMode.Loose(AttributePartitioner.Params(threshold = req(schema, "threshold").asDouble))
    }
    val p = req(c, "pruning")
    val pruning = req(p, "kind").asText match {
      case "NoPruning" => PruningStrategy.NoPruning
      case "Wnp" =>
        val kind = req(p, "threshold").asText match {
          case "MaxFraction" => ThresholdKind.MaxFraction(req(p, "c").asDouble)
        }
        val combine = req(p, "combine").asText match {
          case "Avg" => NodeCombine.Avg
        }
        PruningStrategy.Wnp(kind, combine)
    }
    SparkERConfig(
      mode = mode,
      schemaMode = schemaMode,
      weightScheme = req(c, "weightScheme").asText match {
        case "CBS" => WeightScheme.CBS
      },
      useEntropy = req(c, "useEntropy").asBoolean,
      pruning = pruning,
      matcherScheme = req(c, "matcher").asText match {
        case "JaccardTokens" => Similarity.Scheme.JaccardTokens
      },
      matcherThreshold = req(c, "matcherThreshold").asDouble)
  }
}
