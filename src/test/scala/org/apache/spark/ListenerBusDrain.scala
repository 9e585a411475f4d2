package org.apache.spark

/** Blocks until every event already posted to the listener bus has been
  * delivered, so a test's listener has seen every stage of the actions
  * that returned. The bus is `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
