package repro.lsh

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props

class MinHashSpec extends AnyFunSuite with Props {

  private val hasher = MinHasher
  private val tokenSet = Gen.nonEmptyListOf(Gen.identifier).map(_.toSet)

  /** Jaccard estimate: the fraction of equal signature slots. The pipeline
    * never reads it (LSH proposes attribute pairs, exact Jaccard scores
    * them); it is what the signatures' accuracy is checked with.
    */
  private def estimate(s1: Array[Long], s2: Array[Long]): Double =
    s1.indices.count(i => s1(i) == s2(i)).toDouble / MinHasher.NumHashes

  test("identical sets have identical signatures") {
    val s = Set("sony", "tv", "hd")
    assert(hasher.signature(s).sameElements(hasher.signature(s)))
  }

  test("identical sets estimate 1.0") {
    val s = Set("sony", "tv", "hd")
    assert(estimate(hasher.signature(s), hasher.signature(s)) == 1.0)
  }

  test("disjoint large sets estimate near 0") {
    val a = (1 to 200).map(i => s"a$i").toSet
    val b = (1 to 200).map(i => s"b$i").toSet
    assert(estimate(hasher.signature(a), hasher.signature(b)) < 0.15)
  }

  test("empty set signature is all MaxValue") {
    assert(hasher.signature(Set.empty[String]).forall(_ == Long.MaxValue))
  }

  test("signature is order-independent") {
    val s1 = hasher.signature(List("x", "y", "z"))
    val s2 = hasher.signature(List("z", "x", "y"))
    assert(s1.sameElements(s2))
  }

  test("estimate approximates exact jaccard within 0.2 on structured sets") {
    val base = (1 to 100).map(i => s"t$i").toSet
    for (overlap <- Seq(20, 50, 80)) {
      val other = base.take(overlap) ++ (1 to (100 - overlap)).map(i => s"u$i")
      val exact = Jaccard(base, other.toSet)
      val est = estimate(hasher.signature(base), hasher.signature(other))
      assert(math.abs(exact - est) < 0.2, s"overlap=$overlap exact=$exact est=$est")
    }
  }

  test("property: estimate within 0.35 of exact jaccard (128 hashes)") {
    forAllG2(tokenSet, tokenSet, n = 50) { (a, b) =>
      val est = estimate(hasher.signature(a), hasher.signature(b))
      assert(math.abs(est - Jaccard(a, b)) <= 0.35)
    }
  }

  test("bandKeys: equal signatures share every band") {
    val s1 = hasher.signature(Set("p", "q"))
    val s2 = hasher.signature(Seq("q", "p", "q"))
    assert(hasher.bandKeys(s1) == hasher.bandKeys(s2))
  }

  test("bandKeys band ids are 0 until bands") {
    val s = hasher.signature(Set("p"))
    assert(hasher.bandKeys(s).map(_._1) == (0 until MinHasher.Bands))
  }

  test("Jaccard helper: known values") {
    assert(Jaccard(Set(1, 2), Set(2, 3)) == 1.0 / 3)
    assert(Jaccard(Set.empty[Int], Set.empty[Int]) == 0.0)
    assert(Jaccard(Set(1), Set(1)) == 1.0)
  }
}
