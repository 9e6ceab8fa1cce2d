package perfbench

import org.apache.spark.sql.SparkSession

/** `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  *
  * Runs one workload: starts a session, trains, warms up (together the
  * set-up), measures for about `--seconds`, checks every measured output
  * against the single-node reference, and prints one JSON result as the last
  * line of standard output: end-to-end metrics with `--trace 0`, per-layer
  * metrics with `--trace 1`. Progress and a readable summary go to standard
  * error.
  */
object Main {

  final case class Options(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Seq[String]): Either[String, Options] = {
    val pairs = args.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): Either[String, String] = pairs.get(k).toRight(s"missing --$k")
    for {
      _ <- Either.cond(args.size % 2 == 0 && pairs.size * 2 == args.size, (), s"bad arguments: ${args.mkString(" ")}")
      w <- need("workload").flatMap(n => Workload.byName(n).toRight(
        s"unknown workload $n (known: ${Workload.all.map(_.name).mkString(", ")})"))
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"--seed $s is not an integer"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"--seconds $s is not a positive integer"))
      trace <- need("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace $t is not 0 or 1")
      }
    } yield Options(w, seed, secs, trace)
  }

  /** The program's session settings (as `Jobs.session` makes them); the
    * launcher passes host, scratch directories and the UI switch as
    * `spark.*` system properties.
    */
  def session(): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toSeq) match {
      case Right(o) => o
      case Left(msg) =>
        Console.err.println(s"[perfbench] $msg")
        sys.exit(2)
    }
    val r = new Result
    val t0 = System.nanoTime()
    val spark = session()
    r("setup.session_s") = (System.nanoTime() - t0) / 1e9
    try opts.workload.run(new Context(spark, opts.seed, opts.seconds, opts.trace, r, t0))
    finally spark.stop()

    val units = Catalogue.forMode(opts.trace).map(m => m.name -> m.unit).toMap
    Catalogue.forMode(opts.trace).foreach { m =>
      Console.err.println(f"[perfbench] ${m.name}%-52s ${r.values.getOrElse(m.name, Double.NaN)}%14.6f ${units(m.name)}")
    }
    Console.err.println(s"[perfbench] attempted=${r.attempted} failed=${r.failed}")
    r.problems.foreach(p => Console.err.println(s"[perfbench] FAILED: $p"))
    println(r.json(opts.trace))
  }
}
