package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset

import scala.collection.mutable

/** Incremental pooling of local candidate embeddings into global candidate
  * embeddings (paper Sec. V-C): the CandidateBase keeps, per candidate, a
  * running (count, sum) that finishes as the mean embedding. Pooling an
  * RDD and the streaming update of the CandidateBase are the same
  * `Pool.merge`, and both keep their pools sorted by key.
  */
object GlobalPooling {

  /** Running pool: mention count and element-wise embedding sum. */
  final case class Pool(count: Long, sum: Array[Double]) {
    def mean: Array[Double] = {
      require(count > 0, "mean of empty pool")
      sum.map(_ / count)
    }
    def merge(other: Pool): Pool = {
      require(sum.length == other.sum.length, s"pool dim ${other.sum.length} != ${sum.length}")
      val s = sum.clone()
      var i = 0
      while (i < s.length) { s(i) += other.sum(i); i += 1 }
      Pool(count + other.count, s)
    }
  }

  object Pool {
    /** The pool of one mention; it owns a copy of `emb`. */
    def of(emb: Array[Double]): Pool = Pool(1L, emb.clone())
  }

  /** Merges `more` into `into`, key by key: an absent key takes its pool
    * as it is, a present one merges it.
    */
  def mergeInto(into: mutable.Map[String, Pool], more: IterableOnce[(String, Pool)]): Unit =
    more.iterator.foreach { case (k, p) => into.updateWith(k)(prev => Some(prev.fold(p)(_.merge(p)))) }

  /** The per-partition half of pooling: each row's `emb` added into per-key
    * pools in row order.
    */
  def partitionPools[T](rows: Iterator[T])(key: T => String, emb: T => Array[Double]): mutable.HashMap[String, Pool] = {
    val part = mutable.HashMap.empty[String, Pool]
    mergeInto(part, rows.map(r => (key(r), Pool.of(emb(r)))))
    part
  }

  /** The driver half of pooling: partitions' pools merged in partition
    * order into one map sorted by key.
    */
  def merged(parts: Iterable[collection.Map[String, Pool]]): mutable.TreeMap[String, Pool] = {
    val into = mutable.TreeMap.empty[String, Pool]
    parts.foreach(mergeInto(into, _))
    into
  }

  /** One Pool per key of `rows`, sorted by key, in one narrow job: each
    * partition folds its rows with [[partitionPools]] and the driver
    * [[merged]]s the results. Neither order depends on the core count.
    */
  def pools[T](rows: RDD[T])(key: T => String, emb: T => Array[Double]): mutable.TreeMap[String, Pool] =
    merged(rows.mapPartitions(part => Iterator.single(partitionPools(part)(key, emb))).collect())

  /** Global candidate embeddings: one CandidateRecord per candidate key, by key. */
  def pool(mentions: Dataset[MentionEmb]): Dataset[CandidateRecord] = {
    val spark = mentions.sparkSession
    import spark.implicits._
    pools(mentions.rdd)(_.mention.key, _.emb).toSeq.map { case (key, p) => CandidateRecord(key, p.count, p.mean) }.toDS()
  }
}
