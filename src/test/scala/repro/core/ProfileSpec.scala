package repro.core

import repro.{Fixtures, SparkSpec}

class ProfileSpec extends SparkSpec {

  private lazy val ds = Fixtures.figure1(spark)

  test("toKV explodes one row per attribute value") {
    val kv = Profiles.toKV(ds)
    // p1: 3 attrs, p2: 3, p3: 2, p4: 2
    assert(kv.count() == 10)
  }

  test("toKV schema") {
    assert(Profiles.toKV(ds).columns.toSeq == Seq("pid", "source", "attr", "value"))
  }

  test("toKV drops null and empty values") {
    val p = Profiles.fromSeq(spark, Seq(
      Profile(9, 1, Map("a" -> "x", "b" -> "", "c" -> null))))
    assert(Profiles.toKV(p).count() == 1)
  }

  test("withAttrKey qualifies by source") {
    import spark.implicits._
    val keys = Profiles.withAttrKey(Profiles.toKV(ds))
      .select("attrKey").distinct().as[String].collect().toSet
    assert(keys == Set("1::name", "1::authors", "1::abstract", "2::title", "2::author"))
  }

  test("fromSeq respects partitions hint") {
    val p = Profiles.fromSeq(spark, (1 to 20).map(i => Profile(i, 1, Map("a" -> "x"))), 4)
    assert(p.rdd.getNumPartitions == 4)
  }

  test("profile ids survive round trip") {
    import spark.implicits._
    assert(ds.map(_.id).collect().toSet == Set(1L, 2L, 3L, 4L))
  }
}
