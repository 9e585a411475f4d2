package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments

/** Shared session bootstrap for the spark-submit entrypoints. */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def argInt(args: Array[String], i: Int, default: Int): Int =
    if (args.length > i) args(i).toInt else default
}

/** T1 — Fig 6a–d attribute-partitioning sweep. Usage: [nShared] */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table1")
    println(Experiments.renderT1(Experiments.table1(spark, Jobs.argInt(args, 0, 1000))))
    spark.stop()
  }
}

/** T2 — Fig 6e meta-blocking (± entropy) sweep. Usage: [nShared] */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table2")
    println(Experiments.renderT2(Experiments.table2(spark, Jobs.argInt(args, 0, 1000))))
    spark.stop()
  }
}

/** T3 — matcher scheme × threshold sweep + clustering. Usage: [nShared] */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table3")
    println(Experiments.renderT3(Experiments.table3(spark, Jobs.argInt(args, 0, 1000))))
    spark.stop()
  }
}

/** T4 — scaling sweep + meta-blocking alone. Usage: [nShared] */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table4")
    println(Experiments.renderT4(Experiments.table4(spark, Jobs.argInt(args, 0, 2000))))
    spark.stop()
  }
}
