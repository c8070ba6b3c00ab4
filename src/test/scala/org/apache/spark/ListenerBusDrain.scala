package org.apache.spark

/** The listener bus is private to Spark; tests that count events wait on it
  * so that every event of a finished action has been delivered.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
