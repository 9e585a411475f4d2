package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.MetaBlocking.{PruningStrategy, WeightScheme}

/** Token blocking (Fig 1b) and loose-schema token blocking (Fig 2b).
  *
  * The unit of data between blocker stages is the *block assignment*
  * DataFrame: one row per (blocking key, profile) membership with schema
  *
  *   key: String      — blocking key (token, or token#clusterId)
  *   entropy: Double  — entropy of the key's attribute partition (1.0 when unused)
  *   pid: Long        — profile id
  *   source: Int      — profile's source
  *
  * A *block* is the group of rows sharing `key`. Purging/filtering/
  * meta-blocking all consume and produce this shape, so stages compose.
  *
  * Invariant: assignment rows are distinct per `(key, pid)`. Both blocking
  * functions end in `distinct()`, a loose key `token#cluster` fixes the
  * cluster and so the entropy, and the source follows from the pid because
  * ids are unique ([[Profiles.validate]]). Later stages only drop rows, so
  * the invariant holds for their outputs too. It is what lets the block
  * statistics use plain counts.
  *
  * Both blocking functions hash-partition their rows by `key` before the
  * `distinct()`, which reuses that exchange, so the output arrives
  * clustered by block.
  *
  * The blocker runs neither blocking function: its front end,
  * [[FrontEnd.filtered]], computes the same keys per profile and shuffles
  * only block sizes. [[schemaAgnostic]], [[looseSchema]],
  * [[BlockPurging.purge]] and [[BlockFiltering.filter]] are the DataFrame
  * reference that the front end is tested against, and the traced
  * benchmark replays them. Purging and filtering read the per-block counts
  * from [[withBlockStats]], as window columns over the block (no aggregate
  * is joined back, and on input clustered by key the window needs no
  * shuffle). [[validBlocks]] is not a stage of the blocker's query: the
  * broadcast block index of [[MetaBlocking]] applies its rule on the
  * driver, and the blocker returns it only as a lazy view of the valid
  * assignments. [[comparisons]] is no join on `key`: it walks that index.
  */
object TokenBlocking {

  /** Schema-agnostic token blocking: every token of every attribute is a
    * blocking key, schema information ignored (§1).
    *
    * Both blocking functions read the token table of [[Profiles.toKV]] and
    * keep the tokens at least `minTokenLength` long.
    */
  def schemaAgnostic(kv: DataFrame, minTokenLength: Int = Tokenizer.DefaultMinLength): DataFrame =
    kv.where(Tokenizer.longEnough(col("token"), minTokenLength))
      .select(
        col("token") as "key",
        lit(1.0) as "entropy",
        col("pid"),
        col("source"))
      .repartition(col("key"))
      .distinct()

  /** Loose-schema token blocking: the key is the token concatenated with
    * the id of the attribute partition it came from (Fig 2b), so the same
    * token under dissimilar attributes lands in different blocks.
    *
    * @param clusters (attrKey, cluster, entropy) — one row per qualified
    *                 attribute ("source::attr"), from
    *                 [[repro.lsh.AttributePartitioner]] + [[repro.lsh.Entropy]].
    */
  def looseSchema(
      kv: DataFrame,
      clusters: DataFrame,
      minTokenLength: Int = Tokenizer.DefaultMinLength): DataFrame =
    kv.where(Tokenizer.longEnough(col("token"), minTokenLength))
      .join(broadcast(clusters), "attrKey")
      .select(
        concat(col("token"), lit("#"), col("cluster").cast("string")) as "key",
        col("entropy"),
        col("pid"),
        col("source"))
      .repartition(col("key"))
      .distinct()

  /** The names of the per-block counts that [[withBlockStats]] adds. */
  private[core] val BlockStatColumns: Seq[String] = Seq("size", "nA", "nB")

  /** `assignments` with the counts of its block on every row, as window
    * columns over `Window.partitionBy("key")`: members (`size`), members
    * from source 1 (`nA`) and members from any other source (`nB`). Plain
    * counts, which equal distinct-pid counts by the `(key, pid)` invariant.
    */
  private[core] def withBlockStats(assignments: DataFrame): DataFrame = {
    val byKey = Window.partitionBy("key")
    assignments.select(
      col("*"),
      count(lit(1)).over(byKey) as "size",
      count(when(col("source") === 1, lit(1))).over(byKey) as "nA",
      count(when(col("source") =!= 1, lit(1))).over(byKey) as "nB")
  }

  /** Drop blocks that cannot generate a comparison: singletons, and (in
    * clean-clean ER) blocks whose members all come from one source. The
    * block index of [[MetaBlocking]] drops the same blocks from the rows
    * it reads, so meta-blocking over these assignments equals
    * meta-blocking over its input. In Spark this is one shuffle, by key,
    * unless the input arrives clustered by key.
    */
  def validBlocks(assignments: DataFrame, mode: ERMode): DataFrame = {
    val valid = mode match {
      case ERMode.CleanClean => col("nA") > 0 && col("nB") > 0
      case ERMode.Dirty => col("size") >= 2
    }
    withBlockStats(assignments).where(valid).drop(BlockStatColumns: _*)
  }

  /** Distinct candidate pairs `(p1, p2)` induced by the block collection:
    * every edge of the blocking graph, from [[MetaBlocking.candidates]]
    * with `NoPruning`. Clean-clean: p1 from source 1, p2 from another
    * source; dirty: p1 < p2.
    */
  def comparisons(assignments: DataFrame, mode: ERMode): DataFrame =
    MetaBlocking.candidates(
      assignments, mode, WeightScheme.CBS, useEntropy = false, PruningStrategy.NoPruning)
}
