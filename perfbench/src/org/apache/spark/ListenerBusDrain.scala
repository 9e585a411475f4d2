package org.apache.spark

/** Blocks until every event already posted to the listener bus has been
  * delivered. Spark posts a job's end event before the action that ran it
  * returns, so after `drain` every task of a finished action has been seen
  * by the registered listeners. The bus is `private[spark]`, hence this
  * package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
