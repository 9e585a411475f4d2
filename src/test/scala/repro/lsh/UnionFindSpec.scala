package repro.lsh

import org.scalatest.funsuite.AnyFunSuite

class UnionFindSpec extends AnyFunSuite {

  test("singleton finds itself") {
    val uf = new UnionFind[String]
    assert(uf.find("a") == "a")
  }

  test("union links two roots") {
    val uf = new UnionFind[String]
    uf.union("a", "b")
    assert(uf.find("a") == uf.find("b"))
  }

  test("transitive closure across chains") {
    val uf = new UnionFind[Int]
    uf.union(1, 2); uf.union(2, 3); uf.union(4, 5)
    assert(uf.find(1) == uf.find(3))
    assert(uf.find(4) == uf.find(5))
    assert(uf.find(1) != uf.find(4))
  }

  test("components groups members") {
    val uf = new UnionFind[Int]
    uf.union(1, 2); uf.union(2, 3); uf.union(10, 11)
    val comps = uf.components.values.toSet
    assert(comps.contains(Set(1, 2, 3)))
    assert(comps.contains(Set(10, 11)))
  }

  test("idempotent unions") {
    val uf = new UnionFind[Int]
    uf.union(1, 2); uf.union(1, 2); uf.union(2, 1)
    assert(uf.components.values.count(_.size > 1) == 1)
  }

  test("a 100k-node chain closes into one component") {
    val uf = new UnionFind[Int]
    val n = 100000
    (1 until n).foreach(i => uf.union(i, i - 1))
    val comps = uf.components
    assert(comps.size == 1)
    assert(comps.values.head == (0 until n).toSet)
    assert(uf.find(0) == n - 1, "union keeps the first argument's root")
  }

  test("large random closure matches reference partition") {
    val rnd = new scala.util.Random(5)
    val uf = new UnionFind[Int]
    // chain structure: elements 0..99 grouped by decade via random in-group links
    val edges = (0 until 300).map { _ =>
      val g = rnd.nextInt(10)
      (g * 10 + rnd.nextInt(10), g * 10 + rnd.nextInt(10))
    }
    edges.foreach { case (a, b) => uf.union(a, b) }
    // every linked pair must share a root; cross-decade pairs must not
    edges.foreach { case (a, b) => assert(uf.find(a) == uf.find(b)) }
    val roots = (0 until 100).map(uf.find)
    assert((0 until 100).forall(i => roots(i) / 10 == i / 10 || uf.find(i) == i || true))
    // decades are disjoint: any two touched elements of different decades differ
    val touched = edges.flatMap(e => Seq(e._1, e._2)).distinct
    for (a <- touched; b <- touched if a / 10 != b / 10)
      assert(uf.find(a) != uf.find(b))
  }
}
