package org.apache.spark

/** The listener bus delivers task and job events asynchronously. Draining it
  * at a span boundary makes the work counters read there include every event
  * of the jobs that ran inside the span. The bus is `private[spark]`, hence
  * this one-line bridge in Spark's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
