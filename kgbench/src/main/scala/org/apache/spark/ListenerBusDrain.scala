package org.apache.spark

/** The listener bus is private to Spark; the benchmark waits on it so that
  * every event of a finished call is counted before the counters are read.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
