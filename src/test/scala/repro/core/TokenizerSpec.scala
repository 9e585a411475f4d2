package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Props
import org.scalacheck.Gen

class TokenizerSpec extends AnyFunSuite with Props {

  test("splits on whitespace") {
    assert(Tokenizer.tokenize("sony camcorder") == Seq("sony", "camcorder"))
  }

  test("lowercases") {
    assert(Tokenizer.tokenize("Sony CAMCORDER") == Seq("sony", "camcorder"))
  }

  test("splits on punctuation runs") {
    assert(Tokenizer.tokenize("ab-12//cd..ef") == Seq("ab", "12", "cd", "ef"))
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
    assert(Tokenizer.tokenize("a bc def", minLength = 2) == Seq("bc", "def"))
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
    forAllG2(Gen.asciiPrintableStr, Gen.chooseNum(1, 3)) { (s: String, ml: Int) =>
      Tokenizer.tokenize(s, ml).foreach { t =>
        assert(t.length >= ml)
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
