package repro.data

import org.apache.spark.sql.DataFrame
import repro.core.Patterns

/** Cell-frequency statistics of a dataset (Section III-B): the tuple count,
  * counts per (attr, value), counts per (attr, level, pattern) for the
  * pattern levels L1–L3, and co-occurrence counts per
  * (attr, value, other attr, other value) for the requested attribute pairs.
  */
final case class CellStats(
    n: Long,
    valueCounts: Map[(String, String), Long],
    patCounts: Map[(String, Int, String), Long],
    coCounts: Map[(String, String, String, String), Long],
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

  /** Value, pattern and pair co-occurrence frequencies from one Spark
    * aggregation over a melt that emits each tuple's cells and its `pairs`
    * (attr, other attr). A value's pattern depends only on the value, so the
    * pattern counts are sums of value counts and are derived on the driver;
    * so is n, the count of any one attribute's cells.
    */
  def stats(df: DataFrame, attrs: Seq[String], pairs: Seq[(String, String)] = Nil): CellStats = {
    import df.sparkSession.implicits._
    def cell(a: String) = s"${sqlString(a)}, ${sqlIdent(a)}"
    // A single cell has a null `other`; attribute names never are.
    val none = "CAST(NULL AS STRING), CAST(NULL AS STRING)"
    val rows = attrs.map(a => s"${cell(a)}, $none") ++
      pairs.map { case (a, q) => s"${cell(a)}, ${cell(q)}" }
    val (cellRows, pairRows) = df
      .selectExpr(s"stack(${rows.size}, ${rows.mkString(", ")}) as (attr, value, other, otherValue)")
      .groupBy("attr", "value", "other", "otherValue").count()
      .as[(String, String, String, String, Long)].collect().partition(_._3 == null)
    val valueCounts = cellRows.map { case (a, v, _, _, c) => (a, v) -> c }.toMap
    val coCounts = pairRows.map { case (a, v, q, w, c) => (a, v, q, w) -> c }.toMap
    val patCounts = valueCounts.toSeq.flatMap { case ((a, v), c) =>
      Seq((a, 1, Patterns.l1(v)), (a, 2, Patterns.l2(v)), (a, 3, Patterns.l3(v)))
        .map(_ -> c)
    }.groupMapReduce(_._1)(_._2)(_ + _)
    val n = valueCounts.iterator.collect { case ((a, _), c) if a == attrs.head => c }.sum
    CellStats(n, valueCounts, patCounts, coCounts)
  }

  private def sqlString(s: String): String =
    "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"

  private def sqlIdent(s: String): String = "`" + s.replace("`", "``") + "`"
}
