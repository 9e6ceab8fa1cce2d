package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("nearest-rank percentiles of 1..100") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 50) == 50)
    assert(Stats.percentile(xs, 90) == 90)
    assert(Stats.percentile(xs, 100) == 100)
    assert(Stats.percentile(xs.reverse, 1) == 1)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2)
    assert(Stats.median(Seq(4.0, 1.0)) == 1, "nearest rank takes the lower middle of an even sample")
    assert(Stats.percentile(Seq(7.0), 90) == 7)
    assertThrows[IllegalArgumentException](Stats.percentile(Nil, 50))
    assertThrows[IllegalArgumentException](Stats.percentile(xs, 0))
  }

  test("samples beyond a percentile") {
    assert(Stats.samplesBeyond(100, 90) == 10)
    assert(Stats.samplesBeyond(99, 90) == 9)
    assert(Stats.samplesBeyond(1, 50) == 0)
  }

  test("micro-batch offsets map to ticks and ticks to due times") {
    val s = Schedule(startNanos = 1000000000L, tickNanos = 100000000L, perTick = 40)
    assert(Schedule.ticksOf(None, 4) == (0 to 4))
    assert(Schedule.ticksOf(Some(4), 9) == (5 to 9))
    assert(Schedule.ticksOf(Some(9), 9).isEmpty)
    assert(Schedule.parseOffset(null).isEmpty)
    assert(Schedule.parseOffset("null").isEmpty)
    assert(Schedule.parseOffset(" 7 ").contains(7L))
    assert(Schedule.parseOffset("-1").contains(-1L))
    assert(Schedule.ticksOf(Schedule.parseOffset("-1"), 0) == (0 to 0))
    assert(s.dueNanos(0) == 1000000000L)
    assert(s.dueNanos(12) == 2200000000L)
    assert(s.tweetIds(2) == (80 until 120))
    // Tick 12 is due at 2.2 s; its batch reached the sink at 3.45 s.
    assert(s.latencyMs(12, 3450000000L) == 1250.0)
  }

  test("consecutive batch offsets cover every tweet exactly once") {
    val s = Schedule(0L, 100000000L, perTick = 40)
    val ends = Seq(3L, 4L, 15L, 36L)
    val starts = None +: ends.init.map(Some(_))
    val ids = starts.zip(ends).flatMap { case (a, b) => Schedule.ticksOf(a, b) }.flatMap(s.tweetIds)
    assert(ids == (0 until 37 * 40))
  }

  test("the measured window holds the first n micro-batches sent once it opened") {
    import StreamWorkload.{Progress, Window}
    def p(id: Long, ticks: Range) = Progress(id, ticks, 0L, 0L, 0L, 0L)
    // The warm-up ends during batch 2; tick 9 is the first sent afterwards.
    val batches = Seq(p(3, 9 to 15), p(0, 0 to 3), p(1, 4 to 5), p(2, 6 to 8), p(4, 16 to 20), p(5, 21 to 22))
    val two = Window.measured(batches, windowStart = 9, n = 2)
    assert(two.map(_.batchId) == Seq(3L, 4L))
    assert(Window.ticks(two, 9, 2, sentTicks = 23) == (9 to 20))
    // Fewer batches than asked for: the window runs to the last tick sent.
    val all = Window.measured(batches, windowStart = 9, n = 5)
    assert(all.map(_.batchId) == Seq(3L, 4L, 5L))
    assert(Window.ticks(all, 9, 5, sentTicks = 25) == (9 to 24))
  }

  test("JSON numbers keep every digit and integers print bare") {
    assert(Json.num(3.0) == "3")
    assert(Json.num(0.1 + 0.2) == "0.30000000000000004")
    assert(Json.num(1234.5678) == "1234.5678")
    assertThrows[IllegalArgumentException](Json.num(Double.NaN))
    assert(Json.str("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"")
    assert(Json.obj(Seq("x" -> "1", "y" -> Json.str("s"))) == "{\"x\": 1, \"y\": \"s\"}")
  }

  test("command-line options are checked") {
    val ok = Main.parse(Seq("--workload", "stream-aguilar-d5", "--seed", "3", "--seconds", "10", "--trace", "1"))
    assert(ok.map(o => (o.workload.name, o.seed, o.seconds, o.trace)) == Right(("stream-aguilar-d5", 3L, 10, true)))
    assert(Main.parse(Seq("--workload", "nope", "--seed", "3", "--seconds", "10", "--trace", "0")).isLeft)
    assert(Main.parse(Seq("--workload", "stream-aguilar-d5", "--seed", "x", "--seconds", "10", "--trace", "0")).isLeft)
    assert(Main.parse(Seq("--workload", "stream-aguilar-d5", "--seed", "3", "--seconds", "0", "--trace", "0")).isLeft)
    assert(Main.parse(Seq("--workload", "stream-aguilar-d5", "--seed", "3", "--seconds", "10", "--trace", "2")).isLeft)
    assert(Main.parse(Seq("--workload", "stream-aguilar-d5", "--seed", "3")).isLeft)
  }

  test("a result line carries exactly the metrics of its mode") {
    val r = new Result
    Catalogue.endToEnd.foreach(m => r(m.name) = 1.5)
    r("not.listed") = 2.0
    r.attempted = 4
    val line = r.json(trace = false)
    assert(line.startsWith("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": "))
    assert(!line.contains("not.listed"))
    assertThrows[IllegalStateException](r.json(trace = true))
    r.fail("mismatch")
    assert(r.json(trace = false).startsWith("{\"correct\": false, \"attempted\": 4, \"failed\": 1"))
  }
}
