package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** T1 (Fig 6a–d): blocking quality under schema-agnostic, automatic
  * loose-schema, and manual attribute partitionings. Prints the table and
  * asserts the paper's claimed shape:
  *   - t=1.0 ⇒ one blob partition = plain token blocking: highest recall,
  *     most candidates, lowest precision;
  *   - t=0.3 auto partitions ⇒ fewer candidates, precision up, recall held;
  *   - manual name|description split ⇒ loses more ground-truth pairs.
  */
class Table1AttributePartitioningBench extends SparkSpec {

  private lazy val rows = Experiments.table1(spark, nShared = 800)

  test("T1: table") {
    info("\n" + Experiments.renderT1(rows))
    assert(rows.size == 3)
  }

  test("T1 shape: threshold 1.0 degenerates to a single blob partition (Fig 6a)") {
    assert(rows(0).nPartitions == 1)
    assert(rows(1).nPartitions > 1)
  }

  test("T1 shape: schema-agnostic blocking has near-total recall") {
    assert(rows(0).recall >= 0.97, s"recall=${rows(0).recall}")
  }

  test("T1 shape: auto loose schema cuts candidates while holding recall (Fig 6b)") {
    assert(rows(1).candidates < rows(0).candidates)
    assert(rows(1).recall >= rows(0).recall - 0.02,
      s"loose recall ${rows(1).recall} vs agnostic ${rows(0).recall}")
  }

  test("T1 shape: auto loose schema improves precision (Fig 6b)") {
    assert(rows(1).precision >= rows(0).precision)
  }

  test("T1 shape: manual name/description split loses more GT pairs (Fig 6c/d)") {
    assert(rows(2).lost > rows(1).lost,
      s"manual lost ${rows(2).lost}, auto lost ${rows(1).lost}")
  }
}
