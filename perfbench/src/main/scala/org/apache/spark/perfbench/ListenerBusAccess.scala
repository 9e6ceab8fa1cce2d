package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus's drain is private to Spark; the bench needs it so that
  * task metrics are read only after the listener has seen every task.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
