package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.util.TokenMeter

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Counts the Spark work of a session: jobs started, tasks ended, summed
  * task run time and shuffle bytes read plus written.
  */
final class WorkCounter extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val taskMs = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      taskMs.addAndGet(m.executorRunTime)
      shuffleBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead +
                             m.shuffleWriteMetrics.bytesWritten)
    }
  }
}

/** One timed call into a layer. `parent` is -1 for a root span; `run` is the
  * shared run id `workload/dataset/pass`. Times are seconds since the tracer
  * started.
  */
final case class Span(id: Int, parent: Int, name: String, run: String,
                      start: Double, end: Double, counters: Map[String, Double]) {
  def duration: Double = end - start
}

/** Keeps spans in memory; the caller writes them out when the run ends. */
final class Tracer(sc: SparkContext, work: WorkCounter) {
  private val t0 = System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]
  private var lastId = 0

  private def now: Double = (System.nanoTime() - t0) / 1e9
  private def newId(): Int = synchronized { lastId += 1; lastId }
  private def record(s: Span): Span = synchronized { spans += s; s }

  def recorded: Seq[Span] = synchronized(spans.toList)

  /** Time `body`, which receives the new span's id. Thread-safe; records no
    * counters, because work done on other threads at the same time would
    * land in them.
    */
  def timed[A](name: String, run: String, parent: Int)(body: Int => A): (A, Span) = {
    val id = newId()
    val start = now
    val out = body(id)
    (out, record(Span(id, parent, name, run, start, now, Map.empty)))
  }

  /** Time `body` and count the work it causes: Spark jobs, tasks, task time,
    * shuffle bytes, GC time, and the LLM calls and tokens on `meter`. With
    * `liveHeap`, a forced GC after the span gives the heap still in use.
    * Drains the listener bus at both ends (outside the timed interval), so
    * spans of this kind must not overlap.
    */
  def measured[A](name: String, run: String, parent: Int, meter: TokenMeter,
                  liveHeap: Boolean = false)(body: Int => A): (A, Span) = {
    PerfbenchBus.drain(sc)
    val before = counters(meter)
    val id = newId()
    val start = now
    val out = body(id)
    val end = now
    PerfbenchBus.drain(sc)
    val after = counters(meter)
    val delta = after.map { case (k, v) => k -> (v - before(k)) }
    val heap =
      if (!liveHeap) Map.empty[String, Double]
      else {
        System.gc()
        Map("live_heap_mb" -> ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6)
      }
    (out, record(Span(id, parent, name, run, start, end, delta ++ heap)))
  }

  private def counters(meter: TokenMeter): Map[String, Double] = Map(
    "spark_jobs"  -> work.jobs.get.toDouble,
    "tasks"       -> work.tasks.get.toDouble,
    "task_s"      -> work.taskMs.get / 1e3,
    "shuffle_mb"  -> work.shuffleBytes.get / 1e6,
    "gc_s"        -> ManagementFactory.getGarbageCollectorMXBeans.asScala
                       .map(_.getCollectionTime.max(0L)).sum / 1e3,
    "llm_tokens"  -> meter.totalTokens.toDouble,
    // TokenMeter.call adds to `input` once per call.
    "llm_calls"   -> meter.input.count.toDouble,
  )
}
