package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.udf

import java.util.Locale

/** Schema-agnostic tokenization.
  *
  * The blocker treats every profile as a bag of words (§1 of the paper):
  * values are lowercased (in `Locale.ROOT`, so the tokens do not depend
  * on the host's default locale) and split on any non-letter/non-digit
  * run, and token blocking drops tokens shorter than its `minTokenLength`
  * ([[longEnough]]). There is no stopword list: a stopword such as "the"
  * is a token like any other, and it is block purging that removes the
  * high-frequency keys stopwords make (§2.1).
  */
object Tokenizer {

  /** Default minimum token length; 1 keeps model numbers like "x5". */
  val DefaultMinLength = 1

  private val splitter = "[^\\p{L}\\p{N}]+".r

  /** Tokenize one raw value. Deterministic; preserves duplicates. */
  def tokenize(value: String): Seq[String] =
    if (value == null) Seq.empty
    else
      splitter
        .split(value.toLowerCase(Locale.ROOT))
        .iterator
        .filter(_.nonEmpty) // a leading separator splits off an empty string
        .toSeq

  /** True for a token at least `minLength` long. A token's length is its
    * `String.length`, in UTF-16 units. Spark SQL's `length` counts code
    * points instead, so a supplementary-plane letter such as "𝔸" is 2 here
    * and 1 there.
    */
  def longEnough(token: String, minLength: Int): Boolean = token.length >= minLength

  /** [[longEnough]] over the string column `token`. */
  def longEnough(token: Column, minLength: Int): Column =
    udf((t: String) => longEnough(t, minLength)).apply(token)
}
