package perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

import scala.collection.mutable

/** Spark work attributed to one job group. */
final case class GroupStats(
    jobs: Long = 0,
    tasks: Long = 0,
    cpuNs: Long = 0,
    runMs: Long = 0,
    shuffleWriteBytes: Long = 0,
    resultBytes: Long = 0)

/** Sums Spark job and task metrics per job group.
  *
  * The benchmark wraps every timed region in `SparkContext.setJobGroup`;
  * Spark copies the group into each job's properties (also for jobs it
  * launches from its own threads, such as broadcast and adaptive-query
  * stages), so a job is attributed to the region that caused it. The
  * total job count lets the trace prove that no job went unattributed.
  */
final class GroupListener extends SparkListener {
  private val byGroup = mutable.Map.empty[String, GroupStats]
  private val stageGroup = mutable.Map.empty[Int, String]
  private var allJobs = 0L

  private def update(group: String)(f: GroupStats => GroupStats): Unit =
    byGroup(group) = f(byGroup.getOrElse(group, GroupStats()))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties)
      .flatMap(p => Option(p.getProperty(GroupListener.JobGroupProperty)))
      .getOrElse(GroupListener.NoGroup)
    allJobs += 1
    e.stageIds.foreach(stageGroup(_) = group)
    update(group)(s => s.copy(jobs = s.jobs + 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val group = stageGroup.getOrElse(e.stageId, GroupListener.NoGroup)
    val m = e.taskMetrics
    update(group) { s =>
      if (m == null) s.copy(tasks = s.tasks + 1)
      else s.copy(
        tasks = s.tasks + 1,
        cpuNs = s.cpuNs + m.executorCpuTime,
        runMs = s.runMs + m.executorRunTime,
        shuffleWriteBytes = s.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten,
        resultBytes = s.resultBytes + m.resultSize)
    }
  }

  /** Stats of `group` once every event posted so far has been delivered. */
  def stats(sc: SparkContext, group: String): GroupStats = {
    ListenerBusDrain.drain(sc)
    synchronized(byGroup.getOrElse(group, GroupStats()))
  }

  /** Jobs started so far, in any group or none. */
  def totalJobs(sc: SparkContext): Long = {
    ListenerBusDrain.drain(sc)
    synchronized(allJobs)
  }
}

object GroupListener {
  val NoGroup = "<none>"
  /** Local property under which `SparkContext.setJobGroup` stores the group. */
  val JobGroupProperty = "spark.jobGroup.id"
}
