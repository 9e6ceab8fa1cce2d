package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoint reproducing Table I (dataset statistics). */
object RunTable1 {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("repro-table1")
    try println(Experiments.renderTable1(Experiments.table1(spark)))
    finally spark.stop()
  }
}

/** Shared session builder for the job entrypoints. */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
