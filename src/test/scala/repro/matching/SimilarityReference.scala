package repro.matching

import repro.core.Tokenizer

/** The set and map formulas for Jaccard and cosine that `Similarity`'s
  * signature merge must reproduce bit for bit.
  */
object SimilarityReference {

  def jaccardTokens(a: String, b: String): Double = {
    val (sa, sb) = (Tokenizer.tokenize(a).toSet, Tokenizer.tokenize(b).toSet)
    if (sa.isEmpty && sb.isEmpty) 0.0
    else (sa & sb).size.toDouble / (sa | sb).size
  }

  def cosineTF(a: String, b: String): Double = {
    val ta = Tokenizer.tokenize(a).groupBy(identity).map { case (t, xs) => t -> xs.size.toDouble }
    val tb = Tokenizer.tokenize(b).groupBy(identity).map { case (t, xs) => t -> xs.size.toDouble }
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val dot = ta.iterator.map { case (t, c) => c * tb.getOrElse(t, 0.0) }.sum
      val na = math.sqrt(ta.values.map(c => c * c).sum)
      val nb = math.sqrt(tb.values.map(c => c * c).sum)
      if (na == 0 || nb == 0) 0.0 else dot / (na * nb)
    }
  }

  def score(scheme: Similarity.Scheme, a: String, b: String): Double = scheme match {
    case Similarity.Scheme.JaccardTokens => jaccardTokens(a, b)
    case Similarity.Scheme.CosineTF => cosineTF(a, b)
    case Similarity.Scheme.NormalizedLevenshtein => Similarity.normalizedLevenshtein(a, b)
  }
}
