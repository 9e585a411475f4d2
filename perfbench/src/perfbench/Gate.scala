package perfbench

import org.apache.spark.sql.DataFrame
import repro.lsh.UnionFind

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import scala.collection.Searching.Found

/** The pipeline's three outputs, collected and sorted so that two runs can
  * be compared exactly.
  */
final case class Outputs(
    candidates: IndexedSeq[(Long, Long)],
    matches: IndexedSeq[(Long, Long, Double)],
    clusters: IndexedSeq[(Long, Long)]) {

  /** SHA-256 of each sorted set; scores are written with all their digits. */
  def digests: Map[String, String] = Map(
    "candidates" -> Gate.sha256(candidates.iterator.map { case (a, b) => s"$a,$b" }),
    "matches" -> Gate.sha256(matches.iterator.map { case (a, b, s) => s"$a,$b,$s" }),
    "clusters" -> Gate.sha256(clusters.iterator.map { case (a, b) => s"$a,$b" }))
}

object Outputs {
  def collect(candidates: DataFrame, matches: DataFrame, clusters: DataFrame): Outputs =
    Outputs(
      candidates.select("p1", "p2").collect().map(r => (r.getLong(0), r.getLong(1))).toVector.sorted,
      matches.select("p1", "p2", "score").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toVector.sorted,
      clusters.select("pid", "entityId").collect()
        .map(r => (r.getLong(0), r.getLong(1))).toVector.sorted)
}

/** Output-correctness gate applied to every timed run. */
object Gate {

  def sha256(lines: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes(StandardCharsets.UTF_8)))
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Violations of the invariants that hold on every seed:
    *  - every match is a candidate and scores at least `threshold`;
    *  - every profile has exactly one cluster label, and the labels equal a
    *    driver-side union-find closure over the match pairs (label = least
    *    member id; unmatched profiles are singletons).
    */
  def invariants(out: Outputs, profileIds: IndexedSeq[Long], threshold: Double): Seq[String] = {
    val notCandidate = out.matches.count { case (a, b, _) =>
      !out.candidates.search((a, b)).isInstanceOf[Found]
    }
    val belowThreshold = out.matches.count(_._3 < threshold)

    val uf = new UnionFind[Long]
    out.matches.foreach { case (a, b, _) => uf.union(a, b) }
    val least = uf.components.values.flatMap(m => m.map(_ -> m.min)).toMap
    val expected = profileIds.sorted.map(p => (p, least.getOrElse(p, p)))
    val wrongLabels =
      if (out.clusters.map(_._1) != expected.map(_._1)) -1
      else out.clusters.zip(expected).count { case (got, want) => got != want }

    Seq(
      Option.when(notCandidate > 0)(s"$notCandidate matches are not candidates"),
      Option.when(belowThreshold > 0)(s"$belowThreshold matches score below $threshold"),
      Option.when(wrongLabels < 0)("cluster output does not list every profile exactly once"),
      Option.when(wrongLabels > 0)(s"$wrongLabels cluster labels differ from the union-find closure"),
    ).flatten
  }

  /** Differences between the recorded digests and those of `out`. */
  def digestMismatches(out: Outputs, recorded: Map[String, String]): Seq[String] = {
    val got = out.digests
    Seq("candidates", "matches", "clusters").flatMap { k =>
      val want = recorded.getOrElse(k, "")
      Option.when(got(k) != want)(s"$k digest ${got(k)} differs from recorded '$want'")
    }
  }
}
