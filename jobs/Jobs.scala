package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** The one SparkSession factory, shared by the table job and the tests. */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** spark-submit --class repro.jobs.TableJob <jar> II|III|IV|V|VI — runs one
  * evaluation table and prints it: II dataset statistics, III method
  * comparison, IV ablation study, V LLM comparison, VI clustering methods.
  */
object TableJob {

  private val tables: Seq[(String, SparkSession => String)] = Seq(
    "II"  -> (s => TableII.render(TableII.run(s))),
    "III" -> (s => TableIII.render(TableIII.run(s))),
    "IV"  -> (s => TableIV.render(TableIV.run(s))),
    "V"   -> (s => TableV.render(TableV.run(s))),
    "VI"  -> (s => TableVI.render(TableVI.run(s))),
  )

  def main(args: Array[String]): Unit =
    tables.collectFirst { case (name, render) if args.sameElements(Seq(name)) => render } match {
      case Some(render) =>
        val spark = Jobs.session(s"zeroed-table${args(0)}")
        println(render(spark))
        spark.stop()
      case None =>
        System.err.println(s"usage: repro.jobs.TableJob ${tables.map(_._1).mkString("|")}")
        sys.exit(2)
    }
}
