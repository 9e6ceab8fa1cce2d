package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.expressions.Aggregator

/** Incremental pooling of local candidate embeddings into global candidate
  * embeddings (paper Sec. V-C): the CandidateBase keeps, per candidate, a
  * running (count, sum) that finishes as the mean embedding. The Aggregator
  * formulation gives Catalyst partial aggregation and makes the incremental
  * streaming update (merge of partial pools) literally the same code path
  * as the batch computation.
  */
object GlobalPooling {

  /** Running pool: mention count and element-wise embedding sum. */
  final case class Pool(count: Long, sum: Array[Double]) {
    def mean: Array[Double] = {
      require(count > 0, "mean of empty pool")
      sum.map(_ / count)
    }
    def add(emb: Array[Double]): Pool = {
      require(count == 0 || emb.length == sum.length,
        s"embedding dim ${emb.length} != pool dim ${sum.length}")
      if (count == 0) Pool(1L, emb.clone())
      else {
        val s = sum.clone()
        var i = 0
        while (i < s.length) { s(i) += emb(i); i += 1 }
        Pool(count + 1, s)
      }
    }
    def merge(other: Pool): Pool = {
      if (count == 0) other
      else if (other.count == 0) this
      else {
        require(sum.length == other.sum.length, "pool dim mismatch")
        val s = sum.clone()
        var i = 0
        while (i < s.length) { s(i) += other.sum(i); i += 1 }
        Pool(count + other.count, s)
      }
    }
  }

  object Pool {
    val empty: Pool = Pool(0L, Array.empty[Double])
  }

  /** Typed Aggregator from embeddings to a finished Pool. */
  final class PoolAgg extends Aggregator[Array[Double], Pool, Pool] {
    override def zero: Pool = Pool.empty
    override def reduce(b: Pool, emb: Array[Double]): Pool = b.add(emb)
    override def merge(a: Pool, b: Pool): Pool = a.merge(b)
    override def finish(b: Pool): Pool = b
    override def bufferEncoder: Encoder[Pool] = Encoders.product[Pool]
    override def outputEncoder: Encoder[Pool] = Encoders.product[Pool]
  }

  /** One Pool per key of `ds`, summing `emb` with partial aggregation. */
  def pools[T](ds: Dataset[T])(key: T => String, emb: T => Array[Double]): Dataset[(String, Pool)] = {
    val spark = ds.sparkSession
    import spark.implicits._
    ds.groupByKey(key).mapValues(emb).agg(new PoolAgg().toColumn.name("pool"))
  }

  /** Global candidate embeddings: one CandidateRecord per candidate key. */
  def pool(mentions: Dataset[MentionEmb]): Dataset[CandidateRecord] = {
    val spark = mentions.sparkSession
    import spark.implicits._
    pools(mentions)(_.key, _.emb).map { case (key, p) => CandidateRecord(key, p.count, p.mean) }
  }
}
