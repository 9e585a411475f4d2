package repro.matching

import repro.core.Tokenizer

/** Profile-pair similarity measures for the Entity Matcher (§2.2: "The
  * user can select from a wide range of similarity (or distance) scores,
  * e.g.: Jaccard similarity, Edit Distance, [cosine]"). All return scores
  * in [0, 1]; all implemented from scratch (the paper plugs in Magellan
  * here — see DESIGN.md §3 for the substitution note).
  *
  * Every scheme is a pair of functions: [[signature]] turns one profile
  * text into the scheme's feature, once per profile, and [[compare]]
  * scores two signatures, once per candidate pair. [[score]] is their
  * composition and the only way to score two raw texts.
  *
  * Signature formats, one string each:
  *  - `JaccardTokens`: the distinct tokens, sorted, joined by `' '`;
  *  - `CosineTF`: all tokens with their duplicates, sorted, joined by
  *    `' '`, so each term is a run of equal tokens and its frequency is
  *    the run length;
  *  - `NormalizedLevenshtein`: the raw text.
  *
  * Tokens are runs of letters and digits ([[Tokenizer]]), so none contains
  * the separator. A signature is one string rather than an `array<string>`
  * because the matcher shuffles signatures to the candidate pairs, and an
  * array column costs a length and an offset per element in every shuffled
  * row: on the `agnostic_tb` benchmark workload that raised the run's
  * shuffle bytes by a fifth, while Spark's array set functions were no
  * faster than the merge in [[compare]].
  */
object Similarity {

  sealed trait Scheme
  object Scheme {
    /** Jaccard over distinct token sets. */
    case object JaccardTokens extends Scheme
    /** Cosine over term-frequency vectors. */
    case object CosineTF extends Scheme
    /** 1 − levenshtein(a,b)/max(|a|,|b|) on the raw strings. */
    case object NormalizedLevenshtein extends Scheme
  }

  private val Sep = ' '

  /** The per-profile feature `compare` reads (formats in the object doc). */
  def signature(scheme: Scheme, text: String): String = scheme match {
    case Scheme.JaccardTokens => Tokenizer.tokenize(text).distinct.sorted.mkString(Sep.toString)
    case Scheme.CosineTF => Tokenizer.tokenize(text).sorted.mkString(Sep.toString)
    case Scheme.NormalizedLevenshtein => text
  }

  /** Similarity of two signatures of `scheme`. */
  def compare(scheme: Scheme, a: String, b: String): Double = scheme match {
    case Scheme.JaccardTokens => jaccard(a, b)
    case Scheme.CosineTF => cosine(a, b)
    case Scheme.NormalizedLevenshtein => normalizedLevenshtein(a, b)
  }

  def score(scheme: Scheme, a: String, b: String): Double =
    compare(scheme, signature(scheme, a), signature(scheme, b))

  /** |A ∩ B| / |A ∪ B| by one merge over two sorted distinct-token lists;
    * 0 when both are empty.
    */
  private def jaccard(a: String, b: String): Double = {
    val ta = new Tokens(a)
    val tb = new Tokens(b)
    var na, nb, common = 0
    while (ta.hasToken && tb.hasToken) {
      val c = ta.compareTo(tb)
      if (c <= 0) { ta.advance(); na += 1 }
      if (c >= 0) { tb.advance(); nb += 1 }
      if (c == 0) common += 1
    }
    while (ta.hasToken) { ta.advance(); na += 1 }
    while (tb.hasToken) { tb.advance(); nb += 1 }
    if (na == 0 && nb == 0) 0.0 else common.toDouble / (na + nb - common)
  }

  /** dot(A, B) / (|A|·|B|) over term frequencies, by one merge over the runs
    * of two sorted token lists; 0 when either side is empty. The sums are
    * of small integers, so they are exact whatever the summation order.
    */
  private def cosine(a: String, b: String): Double = {
    val ta = new Tokens(a)
    val tb = new Tokens(b)
    var dot, sa, sb = 0L
    while (ta.hasToken && tb.hasToken) {
      val c = ta.compareTo(tb)
      val ca = if (c <= 0) ta.skipRun() else 0L
      val cb = if (c >= 0) tb.skipRun() else 0L
      dot += ca * cb; sa += ca * ca; sb += cb * cb
    }
    while (ta.hasToken) { val ca = ta.skipRun(); sa += ca * ca }
    while (tb.hasToken) { val cb = tb.skipRun(); sb += cb * cb }
    if (sa == 0 || sb == 0) 0.0 else dot.toDouble / (math.sqrt(sa.toDouble) * math.sqrt(sb.toDouble))
  }

  /** A cursor over the `Sep`-separated tokens of a signature, reading them
    * in place so a comparison allocates nothing per token.
    */
  private final class Tokens(private val s: String) {
    private var start = 0
    private var end = nextEnd(0)

    private def nextEnd(from: Int): Int = {
      val i = s.indexOf(Sep, from)
      if (i < 0) s.length else i
    }

    def hasToken: Boolean = start < s.length

    def advance(): Unit = { start = end + 1; end = if (start < s.length) nextEnd(start) else start }

    /** `String.compareTo` of the current tokens of `this` and `that`. */
    def compareTo(that: Tokens): Int = {
      val la = end - start
      val lb = that.end - that.start
      var i = 0
      while (i < la && i < lb) {
        val d = s.charAt(start + i) - that.s.charAt(that.start + i)
        if (d != 0) return d
        i += 1
      }
      la - lb
    }

    /** Advance past the run of tokens equal to the current one; its length. */
    def skipRun(): Long = {
      val from = start
      val len = end - start
      var n = 0L
      while (hasToken && end - start == len && s.regionMatches(start, s, from, len)) {
        advance(); n += 1
      }
      n
    }
  }

  /** Classic O(|a|·|b|) dynamic-programming edit distance. */
  def levenshtein(a: String, b: String): Int = {
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a(i - 1) == b(j - 1)) 0 else 1
        curr(j) = math.min(math.min(curr(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = curr; curr = t
      i += 1
    }
    prev(b.length)
  }

  def normalizedLevenshtein(a: String, b: String): Double = {
    val m = math.max(a.length, b.length)
    if (m == 0) 1.0 else 1.0 - levenshtein(a, b).toDouble / m
  }
}
