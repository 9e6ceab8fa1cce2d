package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The driver's block manager is private to Spark; a test that checks for
  * leaked broadcast variables reads it here.
  */
object BroadcastBlocks {
  /** Ids of the broadcast variables whose value the driver holds, other
    * than Spark's own task binaries (byte arrays, which Spark's
    * ContextCleaner releases once they are unreachable).
    */
  def held(sc: SparkContext): Set[Long] = {
    val bm = sc.env.blockManager
    bm.getMatchingBlockIds(_.isBroadcast).collect {
      // Reading the values to their end releases the block's read lock.
      case id @ BroadcastBlockId(bid, "")
        if bm.getLocalValues(id).exists(_.data.toList.exists(!_.isInstanceOf[Array[Byte]])) => bid
    }.toSet
  }
}
