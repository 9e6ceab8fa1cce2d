package org.apache.spark

/** The listener bus's drain is private to Spark; a test that counts events
  * with a `SparkListener` needs it to read the count only after the
  * listener has seen every event.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
