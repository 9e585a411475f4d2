package repro

import org.apache.spark.sql.functions._
import repro.core.Profiles
import repro.data.ERData

/** Sanity checks that the DuckDB oracle works in this environment — every
  * blocking-stage oracle test builds on this plumbing.
  */
class OracleSanitySpec extends SparkSpec {

  private lazy val kv = Profiles.toKV(ERData.abtBuy(spark, nShared = 20, nOnlyA = 2, nOnlyB = 2).profiles)
  private val sql = "SELECT attrKey, COUNT(*) AS cnt FROM kv GROUP BY attrKey"

  test("oracle agrees on a per-attribute count of generated profiles") {
    val agg = kv.groupBy("attrKey").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg, sql, "kv" -> kv)
  }

  test("oracle catches a wrong result") {
    val wrong = kv.groupBy("attrKey").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "kv" -> kv)
    }
  }
}
