package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Profile
import repro.eval.Metrics
import repro.pipeline.SparkERPipeline
import repro.pipeline.SparkERPipeline.SparkERConfig

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Pipeline benchmark: one workload, one seed, one JVM.
  *
  * Set-up starts the JVM and the SparkSession, generates and caches the
  * input, and warms up with one run on it. Untraced mode
  * then times warm `SparkERPipeline.run` calls back to back for `--seconds`
  * and reports the end-to-end metrics. Traced mode times one warm `run`,
  * replays the pipeline layer by layer ([[Replay]]) and reports per-span
  * metrics. Every timed run passes the correctness gate or counts as
  * failed. The last stdout line is the result as JSON.
  *
  * Usage: Main --spec <spec.json> --workload <name> [--seed n] [--seconds s]
  *             [--trace 0|1] [--smoke]
  */
object Main {

  final case class Args(
      spec: String,
      workload: String,
      seed: Option[Long],
      seconds: Double,
      trace: Boolean,
      smoke: Boolean)

  private def parseArgs(argv: Array[String]): Args = {
    def loop(rest: List[String], m: Map[String, String]): Map[String, String] = rest match {
      case "--smoke" :: tail => loop(tail, m + ("smoke" -> "1"))
      case k :: v :: tail if k.startsWith("--") => loop(tail, m + (k.drop(2) -> v))
      case Nil => m
      case other => sys.error(s"cannot parse arguments: ${other.mkString(" ")}")
    }
    val m = loop(argv.toList, Map.empty)
    Args(
      spec = m.getOrElse("spec", sys.error("--spec is required")),
      workload = m.getOrElse("workload", sys.error("--workload is required")),
      seed = m.get("seed").map(_.toLong),
      seconds = m.getOrElse("seconds", "10").toDouble,
      trace = m.getOrElse("trace", "0") == "1",
      smoke = m.contains("smoke"))
  }

  /** A generated, cached input and what the gate needs to check runs on it. */
  final case class Input(
      profiles: Dataset[Profile],
      ids: IndexedSeq[Long],
      groundTruth: IndexedSeq[(Long, Long)],
      digests: Map[String, String])

  /** What one warm, untraced `run` took and produced. */
  final case class Timed(seconds: Double, stats: GroupStats, outputs: Outputs)

  final class Bench(spark: SparkSession, listener: GroupListener, cfg: SparkERConfig) {
    private val sc = spark.sparkContext
    private var nRuns = 0

    def load(sizes: Sizes, seed: Long, digests: Map[String, String]): Input = {
      import spark.implicits._
      val data = sizes.generate(spark, seed)
      val profiles = data.profiles.cache()
      val ids = profiles.map(_.id).collect().toVector.sorted
      val gt = data.groundTruth.as[(Long, Long)].collect().toVector
      Input(profiles, ids, gt, digests)
    }

    /** Drop everything a previous run cached, so each run starts alike. */
    private def reset(in: Input): Unit = {
      spark.catalog.clearCache()
      sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
      in.profiles.cache().count()
    }

    /** Gate failures of `out`: invariants, plus digests when recorded. */
    private def check(in: Input, out: Outputs): Seq[String] =
      Gate.invariants(out, in.ids, cfg.matcherThreshold) ++
        (if (in.digests.isEmpty) Nil else Gate.digestMismatches(out, in.digests))

    /** One warm `run`, timed until candidates, matches and clusters are
      * materialised; then its outputs are collected and gated.
      */
    def timedRun(in: Input): Either[String, Timed] = {
      reset(in)
      nRuns += 1
      val group = s"run:$nRuns"
      try {
        sc.setJobGroup(group, group)
        val t0 = System.nanoTime()
        val r = try {
          val r = SparkERPipeline.run(in.profiles, cfg)
          r.blocker.candidates.count(); r.matches.count(); r.clusters.count()
          r
        } finally sc.clearJobGroup()
        val secs = (System.nanoTime() - t0) / 1e9
        val stats = listener.stats(sc, group)
        val out = Outputs.collect(r.blocker.candidates, r.matches, r.clusters)
        val failures = check(in, out)
        if (failures.nonEmpty) Left(failures.mkString("; "))
        else Right(Timed(secs, stats, out))
      } catch {
        case NonFatal(e) => Left(s"run threw $e")
      }
    }

    /** The traced replay of `run` on `in`. It fails if its outputs differ
      * from `base` (those of `run`), fail the gate, or if any job started
      * during the replay falls outside every span.
      */
    def traced(in: Input, base: Outputs): Either[String, Seq[Span]] = {
      reset(in)
      try {
        val before = listener.totalJobs(sc)
        val tracer = new Tracer(sc, listener)
        val (c, m, cl) = Replay.run(in.profiles, cfg, tracer)
        val allJobs = listener.totalJobs(sc) - before
        val spanJobs = tracer.spans.map(_.stats.jobs).sum
        val out = Outputs.collect(c, m, cl)
        val failures = Seq(
          Option.when(out.candidates != base.candidates)("replayed candidates differ from run()"),
          Option.when(out.matches != base.matches)("replayed matches differ from run()"),
          Option.when(out.clusters != base.clusters)("replayed clusters differ from run()"),
          Option.when(spanJobs != allJobs)(s"spans hold $spanJobs of $allJobs jobs"),
        ).flatten ++ check(in, out)
        if (failures.nonEmpty) Left(failures.mkString("; ")) else Right(tracer.spans.toSeq)
      } catch {
        case NonFatal(e) => Left(s"replay threw $e")
      }
    }
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def mb(bytes: Long): Double = bytes / (1024.0 * 1024.0)

  private def log(msg: String): Unit = System.err.println(s"[perfbench] $msg")

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val root = Spec.load(args.spec)
    val w = Spec.workload(root, args.workload)
    val sparkSpec = Spec.spark(root)
    val cores = Runtime.getRuntime.availableProcessors()

    val spark = sparkSpec.conf
      .foldLeft(SparkSession.builder.master(sparkSpec.master.replace("nproc", cores.toString))) {
        case (b, (k, v)) => b.config(k, v)
      }
      .appName(s"perfbench-${w.name}")
      .getOrCreate()
    val code =
      try run(spark, args, w, jvmStart, cores)
      finally spark.stop()
    sys.exit(code)
  }

  private def run(spark: SparkSession, args: Args, w: Workload, jvmStart: Long, cores: Int): Int = {
    val sc = spark.sparkContext
    sc.setLogLevel("ERROR")
    val listener = new GroupListener
    sc.addSparkListener(listener)
    val bench = new Bench(spark, listener, w.config)

    val seed = args.seed.getOrElse(w.defaultSeed)
    val input =
      if (args.smoke) bench.load(w.smoke, seed, Map.empty)
      else bench.load(w.sizes, seed, if (seed == w.defaultSeed) w.digests else Map.empty)

    // Warm-up: one gated run on the measured input (a run on a smaller input
    // plans differently and leaves the measured one cold). A warm-up that
    // fails the gate is the one failed operation of the benchmark.
    bench.timedRun(input) match {
      case Left(f) =>
        log(s"failed: warm-up run: $f")
        println(resultLine(correct = false, attempted = 1, failed = 1, Nil))
        return 1
      case Right(_) =>
    }
    val setupS = (System.currentTimeMillis() - jvmStart) / 1000.0
    log(f"${w.name} seed=$seed setup_s=$setupS%.3f")

    val metrics = ArrayBuffer.empty[(String, Double, String)]
    var attempted = 0
    var failed = 0
    def attempt[A](op: => Either[String, A]): Option[A] = {
      attempted += 1
      op.left.map { f => failed += 1; log(s"failed: $f") }.toOption
    }

    if (!args.trace) {
      // Back-to-back runs; a run is started only if, at the length of the
      // previous one, it ends inside the window. At least one run is made.
      val t0 = System.nanoTime()
      def elapsed = (System.nanoTime() - t0) / 1e9
      val ok = ArrayBuffer.empty[Timed]
      var last = 0.0
      while (attempted == 0 || elapsed + last <= args.seconds) {
        val before = elapsed
        ok ++= attempt(bench.timedRun(input))
        last = elapsed - before
      }
      if (ok.nonEmpty) {
        val out = ok.last.outputs
        // Quality, outside the timed region, from the last run's outputs.
        import spark.implicits._
        val q0 = System.nanoTime()
        val gt = input.groundTruth.toDF("idA", "idB")
        val candidates = Metrics.evaluatePairs(out.candidates.toDF("p1", "p2"), gt)
        val matches = Metrics.evaluatePairs(out.matches.map { case (a, b, _) => (a, b) }.toDF("p1", "p2"), gt)
        val clusters = Metrics.evaluateClusters(out.clusters.toDF("pid", "entityId"), gt)
        log(f"quality metrics took ${(System.nanoTime() - q0) / 1e9}%.2f s")
        metrics ++= Seq(
          ("run_s", median(ok.map(_.seconds).toSeq), "s"),
          ("setup_s", setupS, "s"),
          ("cpu_s", median(ok.map(_.stats.cpuNs / 1e9).toSeq), "s"),
          ("shuffle_mb", median(ok.map(t => mb(t.stats.shuffleWriteBytes)).toSeq), "MB"),
          ("pc", candidates.recall, "ratio"),
          ("pq", candidates.precision, "ratio"),
          ("match_f1", matches.f1, "ratio"),
          ("cluster_f1", clusters.f1, "ratio"))
        log(s"run_s samples=${ok.size}: " + ok.map(t => f"${t.seconds}%.3f").mkString(" ") +
          f"; digests ${out.digests}; total ${(System.currentTimeMillis() - jvmStart) / 1000.0}%.1f s")
      }
    } else {
      for {
        base <- attempt(bench.timedRun(input))
        spans <- attempt(bench.traced(input, base.outputs))
      } metrics ++= spanMetrics(spans, base.seconds, cores)
      log(f"total ${(System.currentTimeMillis() - jvmStart) / 1000.0}%.1f s")
    }

    val correct = failed == 0 && metrics.nonEmpty
    println(resultLine(correct, attempted, failed, metrics.toSeq))
    if (correct) 0 else 1
  }

  /** The result object, printed as the last line of stdout. */
  private def resultLine(
      correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    metrics.map { case (n, v, u) => s""""$n": {"value": ${jsonNumber(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")

  private def jsonNumber(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  /** Per-span metrics for every span name; a span the workload does not run
    * reports zeros.
    */
  private def spanMetrics(spans: Seq[Span], runS: Double, cores: Int): Seq[(String, Double, String)] = {
    val byName = spans.map(s => s.name -> s).toMap
    def rows(n: String) = byName.get(n).map(_.rowsOut.toDouble).getOrElse(0.0)
    def ratio(num: String, den: String) = if (rows(den) == 0) 0.0 else rows(num) / rows(den)
    val candidateSpan =
      if (byName.contains("metablocking.prune")) "metablocking.prune" else "blocking.comparisons"
    val perSpan = Replay.SpanNames.flatMap { n =>
      val s = byName.getOrElse(n, Span(n, 0.0, 0L, GroupStats()))
      val busy = if (s.seconds == 0) 0.0 else s.stats.runMs / 1000.0 / (s.seconds * cores)
      Seq(
        (s"$n.s", s.seconds, "s"),
        (s"$n.rows_out", s.rowsOut.toDouble, "count"),
        (s"$n.jobs", s.stats.jobs.toDouble, "count"),
        (s"$n.tasks", s.stats.tasks.toDouble, "count"),
        (s"$n.cpu_s", s.stats.cpuNs / 1e9, "s"),
        (s"$n.busy_frac", busy, "ratio"),
        (s"$n.shuffle_mb", mb(s.stats.shuffleWriteBytes), "MB"),
        (s"$n.driver_kb", s.stats.resultBytes / 1024.0, "KB"))
    }
    perSpan ++ Seq(
      ("blocking.purge.keep_ratio", ratio("blocking.purge", "blocking.tokens"), "ratio"),
      ("blocking.filter.keep_ratio", ratio("blocking.filter", "blocking.purge"), "ratio"),
      ("metablocking.prune.keep_ratio", ratio("metablocking.prune", "metablocking.edges"), "ratio"),
      ("matcher.score.match_ratio", ratio("matcher.score", candidateSpan), "ratio"),
      ("trace.overhead_s", spans.map(_.seconds).sum - runS, "s"))
  }
}
