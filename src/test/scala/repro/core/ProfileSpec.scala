package repro.core

import repro.{Fixtures, SparkSpec}

class ProfileSpec extends SparkSpec {

  private lazy val ds = Fixtures.figure1(spark)

  test("toKV emits one row per token occurrence") {
    import spark.implicits._
    // p1: 3 tokens, p2: 4, p3: 3, p4: 3
    assert(Profiles.toKV(ds).count() == 13)
    val p = Profiles.fromSeq(spark, Seq(Profile(9, 1, Map("a" -> "X y-x"))))
    val rows = Profiles.toKV(p).as[(Long, Int, String, String)].collect().toSeq
    assert(rows.sortBy(_._4) == Seq((9L, 1, "1::a", "x"), (9L, 1, "1::a", "x"), (9L, 1, "1::a", "y")))
  }

  test("toKV schema") {
    assert(Profiles.toKV(ds).columns.toSeq == Seq("pid", "source", "attrKey", "token"))
  }

  test("toKV drops null and empty values") {
    import spark.implicits._
    val p = Profiles.fromSeq(spark, Seq(
      Profile(9, 1, Map("a" -> "x", "b" -> "", "c" -> null, "d" -> "-- ,"))))
    assert(Profiles.toKV(p).select("attrKey").as[String].collect().toSeq == Seq("1::a"))
  }

  test("toKV qualifies attrKey by source") {
    import spark.implicits._
    val keys = Profiles.toKV(ds).select("attrKey").distinct().as[String].collect().toSet
    assert(keys == Set("1::name", "1::authors", "1::abstract", "2::title", "2::author"))
  }

  test("fromSeq respects partitions hint") {
    val p = Profiles.fromSeq(spark, (1 to 20).map(i => Profile(i, 1, Map("a" -> "x"))), 4)
    assert(p.rdd.getNumPartitions == 4)
  }

  test("validate counts the profiles; dirty ER accepts any source") {
    assert(Profiles.validate(ds, ERMode.CleanClean) == 4)
    assert(Profiles.validate(Profiles.fromSeq(spark, Seq.empty[Profile]), ERMode.CleanClean) == 0)
    val three = Profiles.fromSeq(spark, (1 to 3).map(i => Profile(i, i, Map("a" -> "x"))))
    assert(Profiles.validate(three, ERMode.Dirty) == 3)
  }

  test("profile ids survive round trip") {
    import spark.implicits._
    assert(ds.map(_.id).collect().toSet == Set(1L, 2L, 3L, 4L))
  }
}
