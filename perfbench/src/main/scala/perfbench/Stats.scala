package perfbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Nearest-rank percentile (p in (0, 100]) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p > 0 && p <= 100, s"percentile $p outside (0, 100]")
    val sorted = xs.sorted
    sorted(math.max(0, math.ceil(p / 100.0 * sorted.size).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Samples strictly above the nearest-rank p-th percentile: how many
    * observations that percentile rests on. A percentile is reported only
    * with at least ten of them.
    */
  def samplesBeyond(n: Int, p: Double): Int =
    n - math.max(1, math.ceil(p / 100.0 * n).toInt)
}

/** Open-loop schedule of the stream generator: tick `k` is due `k * tickNanos`
  * after the start and carries tweet ids `[k * perTick, (k + 1) * perTick)`.
  * Each `addData` call on a `MemoryStream` creates one offset, so tick `k`
  * is offset `k`, and a micro-batch whose source progress reads
  * `(startOffset, endOffset]` holds ticks `startOffset + 1 .. endOffset`
  * (a first batch has no start offset).
  */
final case class Schedule(startNanos: Long, tickNanos: Long, perTick: Int) {
  def dueNanos(tick: Int): Long = startNanos + tick * tickNanos
  def tweetIds(tick: Int): Range = (tick * perTick) until ((tick + 1) * perTick)
  /** Latency of every tweet of `tick` whose output reached the sink at `atNanos`. */
  def latencyMs(tick: Int, atNanos: Long): Double = (atNanos - dueNanos(tick)) / 1e6
}

object Schedule {
  /** Ticks a micro-batch holds, from its source's start and end offsets. */
  def ticksOf(startOffset: Option[Long], endOffset: Long): Range =
    (startOffset.getOrElse(-1L) + 1).toInt to endOffset.toInt

  /** The MemoryStream offset JSON (`null`, or a bare number). */
  def parseOffset(json: String): Option[Long] =
    Option(json).map(_.trim).filter(s => s.nonEmpty && s != "null").map(_.toLong)
}

/** Minimal JSON rendering for the result line (keys and numbers only). */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite metric value $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
