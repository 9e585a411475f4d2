package repro.clustering

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.lsh.UnionFind

/** Every case runs `run` on the edges as given, and again with the same
  * edges spread round-robin over 8 partitions, so that components cross
  * partitions and the driver has to merge the partitions' forests.
  */
class ConnectedComponentsSpec extends SparkSpec {
  import spark.implicits._

  private val paths: Seq[(String, DataFrame => DataFrame)] = Seq(
    "" -> (ConnectedComponents.run(_)),
    "8 partitions: " -> (edges => ConnectedComponents.run(edges.repartition(8))))

  for ((prefix, path) <- paths) {

    def cc(edges: Seq[(Long, Long)]): Map[Long, Long] =
      path(edges.toDF("src", "dst")).as[(Long, Long)].collect().toMap

    test(prefix + "empty edge set has no components") {
      assert(cc(Seq.empty).isEmpty)
    }

    test(prefix + "single edge forms one component labelled by the min id") {
      assert(cc(Seq((5L, 3L))) == Map(3L -> 3L, 5L -> 3L))
    }

    test(prefix + "chain collapses to the minimum id") {
      val labels = cc(Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L)))
      assert(labels.values.toSet == Set(1L))
    }

    test(prefix + "two disjoint components stay separate") {
      val labels = cc(Seq((1L, 2L), (10L, 11L), (11L, 12L)))
      assert(labels(1L) == 1L && labels(2L) == 1L)
      assert(labels(10L) == 10L && labels(11L) == 10L && labels(12L) == 10L)
    }

    test(prefix + "edge orientation is irrelevant") {
      assert(cc(Seq((2L, 1L), (3L, 2L))) == cc(Seq((1L, 2L), (2L, 3L))))
    }

    test(prefix + "duplicate edges and self-loops are harmless") {
      val labels = cc(Seq((1L, 2L), (1L, 2L), (2L, 1L), (3L, 3L)))
      assert(labels(1L) == 1L && labels(2L) == 1L && labels(3L) == 3L)
    }

    test(prefix + "star graph converges in few rounds") {
      val labels = cc((2L to 30L).map(i => (1L, i)))
      assert(labels.values.toSet == Set(1L))
    }

    test(prefix + "long path converges (diameter stress)") {
      val labels = cc((1L until 40L).map(i => (i, i + 1)))
      assert(labels.values.toSet == Set(1L))
      assert(labels.size == 40)
    }

    test(prefix + "random graphs match a union-find oracle") {
      val rnd = new scala.util.Random(13)
      for (trial <- 1 to 3) {
        val n = 60
        val edges = Seq.fill(80)((rnd.nextInt(n).toLong, rnd.nextInt(n).toLong))
          .filter { case (a, b) => a != b }
        val got = cc(edges)
        val uf = new UnionFind[Long]
        edges.foreach { case (a, b) => uf.union(a, b) }
        val expected = edges.flatMap(e => Seq(e._1, e._2)).distinct
          .groupBy(uf.find).values
          .flatMap { grp => val m = grp.min; grp.map(_ -> m) }.toMap
        assert(got == expected, s"trial $trial differs")
      }
    }

    test(prefix + "component labels are always the minimum member id") {
      val labels = cc(Seq((7L, 9L), (9L, 4L), (20L, 25L)))
      assert(labels(4L) == 4L && labels(7L) == 4L && labels(9L) == 4L)
      assert(labels(20L) == 20L && labels(25L) == 20L)
    }
  }

  test("a path of 100,001 edges over 8 partitions closes to its minimum id") {
    // Min-label propagation would need one round per hop of its diameter,
    // 100,001; the partitions' forests close it in one pass.
    val n = 100001L
    val edges = spark.range(1, n + 1).select(col("id") as "src", col("id") + 1 as "dst")
    val labels = ConnectedComponents.run(edges.repartition(8))
    val leaves = labels.queryExecution.analyzed.collectLeaves().map(_.getClass).toSet
    assert(leaves == Set(classOf[LocalRelation]))
    val got = labels.as[(Long, Long)].collect()
    assert(got.length == n + 1)
    assert(got.map(_._1).toSet == (1L to n + 1).toSet)
    assert(got.forall(_._2 == 1L))
  }
}
