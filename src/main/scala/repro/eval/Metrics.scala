package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The quality measures the demo GUI displays after each step (§3, §4):
  * recall (pair completeness), precision (pair quality), number of
  * candidate pairs, and the ground-truth pairs lost by blocking — the
  * demo's "false positives" list (pairs in the ground truth that are no
  * longer present after blocking; we call them lost pairs / false
  * negatives, the standard name).
  */
object Metrics {

  /** Pair-level quality of a candidate/match set against the ground truth. */
  final case class PairMetrics(
      pairs: Long,
      gtSize: Long,
      truePositives: Long) {
    def recall: Double = if (gtSize == 0) 1.0 else truePositives.toDouble / gtSize
    def precision: Double = if (pairs == 0) 0.0 else truePositives.toDouble / pairs
    def f1: Double =
      if (recall + precision == 0) 0.0 else 2 * recall * precision / (recall + precision)
    /** Ground-truth pairs lost (the demo's Debug list). */
    def lost: Long = gtSize - truePositives
  }

  private def normalized(pairs: DataFrame): DataFrame =
    pairs.select(
      least(col("p1"), col("p2")) as "lo",
      greatest(col("p1"), col("p2")) as "hi")
      .distinct()

  private def normalizedGt(gt: DataFrame): DataFrame =
    gt.select(
      least(col("idA"), col("idB")) as "lo",
      greatest(col("idA"), col("idB")) as "hi")
      .distinct()

  /** Evaluate a (p1, p2) pair set against a (idA, idB) ground truth.
    * Orientation-insensitive; duplicates are collapsed. One query: a full
    * outer join of the two normalized sets, counted once.
    */
  def evaluatePairs(pairs: DataFrame, gt: DataFrame): PairMetrics = {
    val p = normalized(pairs).withColumn("inP", lit(true))
    val g = normalizedGt(gt).withColumn("inG", lit(true))
    val r = p.join(g, Seq("lo", "hi"), "full_outer")
      .agg(count(col("inP")), count(col("inG")), count(when(col("inP") && col("inG"), true)))
      .head()
    PairMetrics(r.getLong(0), r.getLong(1), r.getLong(2))
  }

  /** The ground-truth pairs missing from a pair set — what the demo's
    * Debug button lists so the user can inspect why each was lost.
    */
  def lostPairs(pairs: DataFrame, gt: DataFrame): DataFrame =
    normalizedGt(gt).except(normalized(pairs))
      .select(col("lo") as "idA", col("hi") as "idB")

  /** Pairwise metrics of a clustering, `(pid, entityId)` with one row per
    * profile: every intra-cluster pair counts as a predicted match
    * (Menestrina, Whang and Garcia-Molina, *Evaluating Entity Resolution
    * Results*, PVLDB 2010). Computed from counts, in time linear in the
    * input, without listing the pairs: the predicted pairs are
    * Σ n_c·(n_c − 1)/2 over the cluster sizes, and the true positives are
    * the distinct ground-truth pairs of two different profiles that carry
    * the same label. A ground-truth pair of one profile with itself, or
    * with an end that has no label, is never a true positive.
    */
  def evaluateClusters(clusters: DataFrame, gt: DataFrame): PairMetrics = {
    val predicted = clusters.groupBy("entityId").agg(count(lit(1)) as "n")
      .agg(coalesce(sum(col("n") * (col("n") - 1)), lit(0L)))
      .head().getLong(0) / 2
    def label(end: String) = clusters.select(col("pid") as end, col("entityId") as s"e$end")
    val r = normalizedGt(gt)
      .join(label("lo"), Seq("lo"), "left")
      .join(label("hi"), Seq("hi"), "left")
      .agg(count(lit(1)),
        count(when(col("lo") < col("hi") && col("elo") === col("ehi"), true)))
      .head()
    PairMetrics(predicted, r.getLong(0), r.getLong(1))
  }

  /** Fraction of the all-pairs comparison space the blocker avoided. */
  def reductionRatio(candidates: Long, nA: Long, nB: Long): Double = {
    val total = nA * nB
    if (total == 0) 0.0 else 1.0 - candidates.toDouble / total
  }
}
