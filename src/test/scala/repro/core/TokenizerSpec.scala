package repro.core

import org.apache.spark.sql.functions.col
import repro.{Props, SparkSpec}
import org.scalacheck.Gen

import java.util.Locale

class TokenizerSpec extends SparkSpec with Props {
  import spark.implicits._

  test("splits on whitespace") {
    assert(Tokenizer.tokenize("sony camcorder") == Seq("sony", "camcorder"))
  }

  test("lowercases") {
    assert(Tokenizer.tokenize("Sony CAMCORDER") == Seq("sony", "camcorder"))
  }

  test("lowercases the same under any default locale") {
    val default = Locale.getDefault
    Locale.setDefault(Locale.forLanguageTag("tr"))
    try assert(Tokenizer.tokenize("TITLE Istanbul") == Seq("title", "istanbul"))
    finally Locale.setDefault(default)
  }

  test("splits on punctuation runs") {
    assert(Tokenizer.tokenize("ab-12//cd..ef") == Seq("ab", "12", "cd", "ef"))
    assert(Tokenizer.tokenize(" -ab cd") == Seq("ab", "cd")) // no empty leading token
  }

  test("keeps digits as tokens") {
    assert(Tokenizer.tokenize("19.99") == Seq("19", "99"))
  }

  test("null value yields no tokens") {
    assert(Tokenizer.tokenize(null) == Seq.empty)
  }

  test("empty string yields no tokens") {
    assert(Tokenizer.tokenize("") == Seq.empty)
  }

  test("pure punctuation yields no tokens") {
    assert(Tokenizer.tokenize("-- // ..") == Seq.empty)
  }

  test("minLength filters short tokens") {
    val tokens = Tokenizer.tokenize("a bc def").toDF("token")
    val kept = tokens.where(Tokenizer.longEnough(col("token"), minLength = 2))
    assert(kept.as[String].collect().toSeq == Seq("bc", "def"))
  }

  test("duplicates preserved by tokenize") {
    assert(Tokenizer.tokenize("x y x") == Seq("x", "y", "x"))
  }

  test("unicode letters survive") {
    assert(Tokenizer.tokenize("café müller") == Seq("café", "müller"))
  }

  test("model codes split into alpha and numeric runs kept whole per run") {
    assert(Tokenizer.tokenize("XC-1234") == Seq("xc", "1234"))
  }

  test("property: tokens never contain separators and respect minLength") {
    forAllG(Gen.asciiPrintableStr) { s: String =>
      Tokenizer.tokenize(s).foreach { t =>
        assert(t.length >= Tokenizer.DefaultMinLength)
        assert(t == t.toLowerCase)
        assert(t.forall(_.isLetterOrDigit))
      }
    }
  }

  test("property: tokenize is deterministic") {
    forAllG(Gen.asciiPrintableStr) { s: String =>
      assert(Tokenizer.tokenize(s) == Tokenizer.tokenize(s))
    }
  }
}
