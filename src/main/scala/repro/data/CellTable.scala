package repro.data

import org.apache.spark.sql.DataFrame
import repro.core.Patterns

/** Cell-frequency statistics of a dataset (Section III-B): the tuple count,
  * counts per (attr, value) and counts per (attr, level, pattern) for the
  * pattern levels L1–L3.
  */
final case class CellStats(
    n: Long,
    valueCounts: Map[(String, String), Long],
    patCounts: Map[(String, Int, String), Long],
)

/** Wide ↔ long conversions for cell-level processing.
  *
  * The long "cell table" (tid, attr, value) is the unit of error detection —
  * masks, predictions and metrics are all keyed by (tid, attr).
  */
object CellTable {

  /** Melt a wide dataset (tid + string attrs) into (tid, attr, value). */
  def cells(df: DataFrame, attrs: Seq[String]): DataFrame = {
    val stackArgs = attrs.map(a => s"${sqlString(a)}, ${sqlIdent(a)}").mkString(", ")
    df.selectExpr("tid", s"stack(${attrs.size}, $stackArgs) as (attr, value)")
  }

  /** Value and pattern frequencies of every attribute, from one Spark
    * aggregation. A value's pattern depends only on the value, so the pattern
    * counts are sums of value counts and are derived on the driver; so is n,
    * the count of any one attribute's cells.
    */
  def stats(df: DataFrame, attrs: Seq[String]): CellStats = {
    import df.sparkSession.implicits._
    val valueCounts = cells(df, attrs).groupBy("attr", "value").count()
      .as[(String, String, Long)].collect()
      .map { case (a, v, c) => (a, v) -> c }.toMap
    val patCounts = valueCounts.toSeq.flatMap { case ((a, v), c) =>
      Seq((a, 1, Patterns.l1(v)), (a, 2, Patterns.l2(v)), (a, 3, Patterns.l3(v)))
        .map(_ -> c)
    }.groupMapReduce(_._1)(_._2)(_ + _)
    val n = valueCounts.iterator.collect { case ((a, _), c) if a == attrs.head => c }.sum
    CellStats(n, valueCounts, patCounts)
  }

  private def sqlString(s: String): String =
    "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"

  private def sqlIdent(s: String): String = "`" + s.replace("`", "``") + "`"
}
