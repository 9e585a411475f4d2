package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import repro.Props
import org.scalacheck.Gen
import repro.matching.Similarity._

class SimilaritySpec extends AnyFunSuite with Props {

  private val word = Gen.nonEmptyListOf(Gen.alphaLowerChar).map(_.mkString)
  private val text = Gen.listOf(word).map(_.mkString(" "))

  private def jaccardTokens(a: String, b: String) = score(Scheme.JaccardTokens, a, b)
  private def cosineTF(a: String, b: String) = score(Scheme.CosineTF, a, b)

  private val schemes =
    Seq(Scheme.JaccardTokens, Scheme.CosineTF, Scheme.NormalizedLevenshtein)

  /** Texts drawn from a small pool of tokens, so pairs share tokens and
    * repeat them, with mixed case, non-ASCII letters and digits (one
    * outside the BMP), and separators that are punctuation or nothing.
    */
  private val messyText: Gen[String] = {
    val token = Gen.oneOf("a", "b", "ab", "AB", "x5", "5", "é", "É", "straße", "日本",
      "٣٤", "Ⅻ", "İ", "\uD835\uDC00", "sony", "tv")
    val sep = Gen.oneOf(" ", "  ", "-", ", ", "!?", "\t", "…", "")
    Gen.listOf(Gen.oneOf(token, sep)).map(_.mkString)
  }

  /** Arbitrary characters (no lone surrogates), mostly not tokens at all. */
  private val anyText: Gen[String] = Gen.listOf(Gen.oneOf(
    org.scalacheck.Arbitrary.arbitrary[Char], Gen.oneOf(" .,;:-/()".toSeq))).map(_.mkString)

  test("property: score equals the set/map reference for every scheme, bit for bit") {
    val edge = Seq("", " ", "...", "-- !", "a", "a a", "A a", "ab ab ab b", "日本 日本", "٣٤")
    for (scheme <- schemes; a <- edge; b <- edge)
      assert(score(scheme, a, b) == SimilarityReference.score(scheme, a, b), s"$scheme '$a' '$b'")
    val gen = Gen.oneOf(messyText, anyText, text)
    forAllG2(gen, gen, n = 500) { (a, b) =>
      for (scheme <- schemes)
        assert(score(scheme, a, b) == SimilarityReference.score(scheme, a, b), scheme.toString)
    }
  }

  // ---- Jaccard ----

  test("jaccard of identical token bags is 1") {
    assert(jaccardTokens("sony tv", "sony tv") == 1.0)
  }

  test("jaccard of disjoint is 0") {
    assert(jaccardTokens("sony tv", "bosch washer") == 0.0)
  }

  test("jaccard half overlap") {
    // {a,b} vs {b,c}: 1/3
    assert(math.abs(jaccardTokens("a b", "b c") - 1.0 / 3) < 1e-12)
  }

  test("jaccard ignores token order and duplicates") {
    assert(jaccardTokens("tv sony sony", "sony tv") == 1.0)
  }

  test("jaccard of two empties is 0") {
    assert(jaccardTokens("", "") == 0.0)
  }

  test("property: jaccard symmetric and in [0,1]") {
    forAllG2(text, text) { (a, b) =>
      val s = jaccardTokens(a, b)
      assert(s >= 0.0 && s <= 1.0)
      assert(s == jaccardTokens(b, a))
    }
  }

  // ---- Cosine ----

  test("cosine of identical texts is 1") {
    assert(math.abs(cosineTF("sony tv hd", "sony tv hd") - 1.0) < 1e-12)
  }

  test("cosine of disjoint is 0") {
    assert(cosineTF("sony tv", "bosch washer") == 0.0)
  }

  test("cosine weighs term frequency") {
    // "a a b" = (2,1); "a b" = (1,1): cos = 3/(sqrt5 sqrt2)
    val expected = 3.0 / (math.sqrt(5) * math.sqrt(2))
    assert(math.abs(cosineTF("a a b", "a b") - expected) < 1e-12)
  }

  test("cosine with empty side is 0") {
    assert(cosineTF("", "sony") == 0.0)
  }

  test("property: cosine symmetric and in [0,1+eps]") {
    forAllG2(text, text) { (a, b) =>
      val s = cosineTF(a, b)
      assert(s >= 0.0 && s <= 1.0 + 1e-9)
      assert(math.abs(s - cosineTF(b, a)) < 1e-12)
    }
  }

  // ---- Levenshtein ----

  test("levenshtein classic example kitten→sitting = 3") {
    assert(levenshtein("kitten", "sitting") == 3)
  }

  test("levenshtein of equal strings is 0") {
    assert(levenshtein("sparker", "sparker") == 0)
  }

  test("levenshtein with empty side is other length") {
    assert(levenshtein("", "abc") == 3)
    assert(levenshtein("abc", "") == 3)
  }

  test("levenshtein single substitution") {
    assert(levenshtein("cat", "car") == 1)
  }

  test("normalizedLevenshtein equal strings = 1") {
    assert(normalizedLevenshtein("abc", "abc") == 1.0)
  }

  test("normalizedLevenshtein both empty = 1") {
    assert(normalizedLevenshtein("", "") == 1.0)
  }

  test("normalizedLevenshtein disjoint same length") {
    assert(normalizedLevenshtein("aaa", "bbb") == 0.0)
  }

  test("property: levenshtein symmetric, triangle-ish bounds") {
    forAllG2(word, word) { (a, b) =>
      val d = levenshtein(a, b)
      assert(d == levenshtein(b, a))
      assert(d >= math.abs(a.length - b.length))
      assert(d <= math.max(a.length, b.length))
    }
  }

  test("property: normalizedLevenshtein in [0,1]") {
    forAllG2(word, word) { (a, b) =>
      val s = normalizedLevenshtein(a, b)
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  test("score dispatches to all schemes") {
    assert(score(Scheme.JaccardTokens, "a b", "a b") == 1.0)
    assert(math.abs(score(Scheme.CosineTF, "a", "a") - 1.0) < 1e-12)
    assert(score(Scheme.NormalizedLevenshtein, "a", "a") == 1.0)
  }
}
