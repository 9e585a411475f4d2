package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments
import repro.experiments.Experiments._

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
    val rows = Experiments.table1(spark, Jobs.argInt(args, 0, 1000))
    println(Experiments.render(
      Seq("config", "partitions", "blocks", "candidates", "recall", "precision", "lostGT"),
      rows.map(r => Seq(r.config, r.nPartitions.toString, r.nBlocks.toString,
        r.candidates.toString, pct(r.recall), pct(r.precision), r.lost.toString))))
    spark.stop()
  }
}

/** T2 — Fig 6e meta-blocking (± entropy) sweep. Usage: [nShared] */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table2")
    val rows = Experiments.table2(spark, Jobs.argInt(args, 0, 1000))
    println(Experiments.render(
      Seq("config", "candidates", "recall", "precision", "f1"),
      rows.map(r => Seq(r.config, r.candidates.toString, pct(r.recall),
        pct(r.precision), pct(r.f1)))))
    spark.stop()
  }
}

/** T3 — matcher scheme × threshold sweep + clustering. Usage: [nShared] */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table3")
    val rows = Experiments.table3(spark, Jobs.argInt(args, 0, 1000))
    println(Experiments.render(
      Seq("scheme", "thr", "matches", "pairP", "pairR", "pairF1", "clP", "clR", "clF1"),
      rows.map(r => Seq(r.scheme, pct(r.threshold), r.matchPairs.toString,
        pct(r.pairPrecision), pct(r.pairRecall), pct(r.pairF1),
        pct(r.clusterPrecision), pct(r.clusterRecall), pct(r.clusterF1)))))
    spark.stop()
  }
}

/** T4 — scaling sweep + meta-blocking alone. Usage: [nShared] */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("sparker-table4")
    val rows = Experiments.table4(spark, Jobs.argInt(args, 0, 2000))
    println(Experiments.render(
      Seq("variant", "partitions", "profiles", "candidates", "millis"),
      rows.map(r => Seq(r.variant, r.partitions.toString, r.nProfiles.toString,
        r.candidates.toString, r.millis.toString))))
    spark.stop()
  }
}
