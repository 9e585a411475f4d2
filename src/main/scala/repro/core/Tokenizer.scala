package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{explode, udf}

/** Schema-agnostic tokenization.
  *
  * The blocker treats every profile as a bag of words (§1 of the paper):
  * values are lowercased and split on any non-letter/non-digit run. Tokens
  * shorter than `minLength` and stopwords are dropped — purging removes
  * huge stopword blocks anyway, but dropping 1-char noise keeps the block
  * collection (and the oracle tables) small.
  */
object Tokenizer {

  /** Default minimum token length; 1 keeps model numbers like "x5". */
  val DefaultMinLength = 1

  private val splitter = "[^\\p{L}\\p{N}]+".r

  /** Tokenize one raw value. Deterministic; preserves duplicates. */
  def tokenize(value: String, minLength: Int = DefaultMinLength): Seq[String] =
    if (value == null) Seq.empty
    else
      splitter
        .split(value.toLowerCase)
        .iterator
        .filter(t => t.length >= minLength)
        .toSeq

  /** Distinct token set of one value — blocking keys are sets. */
  def tokenSet(value: String, minLength: Int = DefaultMinLength): Set[String] =
    tokenize(value, minLength).toSet

  /** One row per token occurrence of the string column `value`, duplicates
    * kept. Callers that need token sets follow it with `distinct()`.
    */
  def explodeTokens(value: Column, minLength: Int = DefaultMinLength): Column =
    explode(udf((v: String) => tokenize(v, minLength)).apply(value))
}
