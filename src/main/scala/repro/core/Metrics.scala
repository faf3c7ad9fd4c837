package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Cell-level detection quality (Section IV-A): precision, recall, F1 over
  * the ground-truth error mask.
  */
final case class PRF(tp: Long, fp: Long, fn: Long, tn: Long) {
  def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
  def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
  def f1: Double = {
    val p = precision; val r = recall
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }
  def +(o: PRF): PRF = PRF(tp + o.tp, fp + o.fp, fn + o.fn, tn + o.tn)
  override def toString: String = f"P=$precision%.3f R=$recall%.3f F1=$f1%.3f"
}

object Metrics {

  /** Evaluate predictions (tid, attr, pred) against the mask
    * (tid, attr, is_error). Cells without a prediction count as clean.
    */
  def evaluate(pred: DataFrame, mask: DataFrame): PRF =
    countsByType(pred, mask).values.foldLeft(PRF(0, 0, 0, 0))(_ + _)

  /** Per-error-type recall-oriented breakdown (Fig. 11-style diagnostics):
    * for each injected type, the F1 restricted to cells that are either clean
    * or of that type.
    */
  def evaluateByType(pred: DataFrame, mask: DataFrame): Map[String, PRF] = {
    val counts = countsByType(pred, mask)
    (counts - "").map { case (t, p) => t -> (p + counts.getOrElse("", PRF(0, 0, 0, 0))) }
  }

  /** Confusion counts per `err_type` ("" = clean), from one join and one aggregation. */
  private def countsByType(pred: DataFrame, mask: DataFrame): Map[String, PRF] =
    mask.select("tid", "attr", "is_error", "err_type")
      .join(pred.select(col("tid"), col("attr"), col("pred")), Seq("tid", "attr"), "left")
      .withColumn("p", coalesce(col("pred"), lit(false)))
      .groupBy("err_type").agg(
        sum(when(col("is_error") && col("p"), 1L).otherwise(0L)).as("tp"),
        sum(when(!col("is_error") && col("p"), 1L).otherwise(0L)).as("fp"),
        sum(when(col("is_error") && !col("p"), 1L).otherwise(0L)).as("fn"),
        sum(when(!col("is_error") && !col("p"), 1L).otherwise(0L)).as("tn"),
      ).collect().map { r =>
        r.getString(0) -> PRF(r.getLong(1), r.getLong(2), r.getLong(3), r.getLong(4))
      }.toMap
}
