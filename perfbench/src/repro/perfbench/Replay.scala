package repro.perfbench

import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core._
import repro.data.EDataset
import repro.llm.{Guideline, SimLLM}
import repro.util.TokenMeter

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** A traced replay of `ZeroED.run`: the same public calls into each
  * `repro.core` layer, in the same order, each wrapped in a span. The glue
  * between the calls is copied from `ZeroED.run`; comments name what each
  * copy mirrors, so a restructured `ZeroED.run` shows up as
  * `trace.replay_matches` = 0 rather than as a failed run.
  */
object Replay {

  /** What the replay produced, in the terms of `ZeroEDResult`, plus the
    * per-layer quantities of this dataset (summable; see [[Layers.combine]]).
    */
  final case class Outcome(metrics: PRF, propagation: PRF, inputTokens: Long,
                           outputTokens: Long, nSampledCells: Int, layers: Map[String, Double])

  def run(spark: SparkSession, ds: EDataset, cfg: ZeroEDConfig,
          tracer: Tracer, runId: String): Outcome = {
    val meter = TokenMeter(spark.sparkContext, s"perfbench-${ds.name}-${cfg.profile.name}")
    val layers = scala.collection.mutable.Map.empty[String, Double]
    def put(layer: String, span: Span, counters: String*): Unit = {
      layers(s"$layer.wall_s") = span.duration
      counters.foreach(c => layers(s"$layer.$c") = span.counters(c))
    }

    val ((prf, propPrf, nSampled), _) = tracer.measured("zeroed.run", runId, -1, meter) { rootId =>
      def measured[A](name: String, liveHeap: Boolean = false)(body: => A): (A, Span) =
        tracer.measured(name, runId, rootId, meter, liveHeap)(_ => body)

      // ZeroED.run, step 1: feature representation.
      val (corr, corrSpan) = measured("corr") {
        if (cfg.useCorr) Correlation.topK(ds.dirty, ds.attrs, cfg.corrK)
        else ds.attrs.map(_ -> Seq.empty[String]).toMap
      }
      put("corr", corrSpan, "spark_jobs")

      val opts = FeatureOpts(corrK = cfg.corrK, useCriteria = cfg.useCriteria,
                             useCorr = cfg.useCorr)
      val (model, fitSpan) = measured("features.fit") {
        FeatureModel.fit(spark, ds, corr, cfg.profile, meter, opts)
      }
      put("features.fit", fitSpan, "spark_jobs", "task_s", "llm_tokens")

      // ZeroED.run: `transform(...).repartition(8).cache()`, then the
      // `collectCells`, `rowCtx` and `errTypes` collects.
      val ((cellsF, attrCells, rowCtx, errTypes), transformSpan) =
        measured("features.transform", liveHeap = true) {
          val cellsF = FeatureModel.transform(spark, ds, model).repartition(8).cache()
          val attrCells = ZeroED.collectCells(cellsF, ds)
          val rowCtx: Map[Long, Map[String, String]] = ds.dirty.collect().map { r =>
            r.getAs[Long]("tid") -> ds.attrs.map(a => a -> r.getAs[String](a)).toMap
          }.toMap
          val errTypes: Map[(Long, String), String] = ds.mask.collect().map { r =>
            (r.getAs[Long]("tid"), r.getAs[String]("attr")) -> r.getAs[String]("err_type")
          }.toMap
          (cellsF, attrCells, rowCtx, errTypes)
        }
      put("features.transform", transformSpan, "spark_jobs", "task_s", "gc_s", "live_heap_mb")
      layers("features.transform.rows_collected") =
        (attrCells.values.map(_.size).sum + rowCtx.size + errTypes.size).toDouble

      // ZeroED.run, step 2: one Future per attribute on the global pool.
      val s = Sampling.clusterCount(rowCtx.size.toLong, cfg.labelRate)
      implicit val ec: ExecutionContext = ExecutionContext.global
      val (clustered, samplingSpan) = tracer.timed("sampling", runId, rootId) { samplingId =>
        Await.result(Future.traverse(ds.attrs.toSeq) { a =>
          Future(tracer.timed("sampling.attr", runId, samplingId) { _ =>
            Sampling.cluster(cfg.clusterMethod, a, attrCells(a).feats, s,
                             s"${ds.name}:${cfg.seed}")
          })
        }, Duration.Inf)
      }
      val clusters: Map[String, Sampling.AttrClusters] =
        ds.attrs.zip(clustered.map(_._1)).toMap
      val attrSpans = clustered.map(_._2)
      layers("sampling.wall_s") = samplingSpan.duration
      layers("sampling.busy_s") = attrSpans.map(_.duration).sum
      layers("sampling.slowest_attr_s") = attrSpans.map(_.duration).max
      layers("sampling.points") = attrCells.values.map(_.size).sum.toDouble
      layers("sampling.clusters") = clusters.values.map(_.reps.length).sum.toDouble
      layers("sampling.empty_clusters") = clusters.values.map(_.reps.count(_ < 0)).sum.toDouble
      layers("sampling.sampled_cells") = clusters.values.map(_.sampledIdx.length).sum.toDouble

      // ZeroED.run: guidelines from the first 20 sampled values, then labeling.
      val (sampleLabels, labelSpan) = measured("labeling") {
        val guidelines: Map[String, Guideline] =
          if (!cfg.useGuidelines) Map.empty
          else ds.attrs.map { a =>
            val sampleVals = clusters(a).sampledIdx.take(20).map(attrCells(a).values).toSeq
            a -> SimLLM.makeGuideline(cfg.profile, meter, ds.name, a, model.dists(a), sampleVals)
          }.toMap
        Labeling.labelSamples(cfg.profile, meter, ds.name, attrCells, clusters,
          rowCtx, errTypes, corr, guidelines, useCtx = cfg.useCorr, batchSize = cfg.batchSize)
      }
      put("labeling", labelSpan, "llm_calls", "llm_tokens")
      layers("_labeling.labels") = sampleLabels.size.toDouble
      layers("_labeling.correct") = sampleLabels.count { case ((a, tid), l) =>
        l == errTypes.getOrElse((tid, a), "").nonEmpty
      }.toDouble

      // ZeroED.run, step 3: Algorithm 1.
      val (outcome, alg1Span) = measured("alg1") {
        TrainData.construct(cfg.profile, meter, ds.name, model, attrCells, clusters,
          sampleLabels, rowCtx, corr, cfg.useVerify)
      }
      put("alg1", alg1Span, "llm_calls", "llm_tokens")
      layers("alg1.propagated_cells") = outcome.labels.size.toDouble
      layers("alg1.dropped_clean") = outcome.labels.count(!_.keep).toDouble
      layers("alg1.augmented") = outcome.augmented.size.toDouble

      // ZeroED.run, step 4: the training join, union with the augmented
      // errors, `repartition(8).cache()` and `count()`.
      import spark.implicits._
      val labelsDf = outcome.labels.toDF("tid", "attr", "label", "keep")
      val ((train, trainRows), joinSpan) = measured("train_join") {
        val propagatedTrain = cellsF.join(labelsDf.where($"keep"), Seq("tid", "attr"))
          .select($"features", when($"label", 1.0).otherwise(0.0).as("label"))
        val augTrain = outcome.augmented
          .map(a => (Vectors.dense(a.features).asInstanceOf[org.apache.spark.ml.linalg.Vector], 1.0))
          .toDF("features", "label")
        val train = propagatedTrain.unionAll(augTrain).repartition(8).cache()
        (train, train.count())
      }
      put("train_join", joinSpan, "spark_jobs")
      layers("train_join.train_rows") = trainRows.toDouble
      // Every kept label joins exactly one featurized cell.
      layers("_train_join.pos_rows") =
        (outcome.labels.count(l => l.keep && l.label) + outcome.augmented.size).toDouble

      val (pred, detSpan) = measured("detector.fit") {
        Detector.trainPredict(spark, train, cellsF, model.totalDim, cfg.seed)
      }
      put("detector.fit", detSpan, "spark_jobs", "task_s", "gc_s")

      // ZeroED.run: evaluation of the predictions and of the propagated labels.
      val ((prf, propPrf), evalSpan) = measured("detector.predict_eval") {
        val prf = Metrics.evaluate(pred, ds.mask)
        val propPrf = Metrics.evaluate(
          labelsDf.select($"tid", $"attr", $"label".as("pred")), ds.mask)
        cellsF.unpersist(); train.unpersist()
        (prf, propPrf)
      }
      put("detector.predict_eval", evalSpan, "spark_jobs", "task_s", "shuffle_mb")
      layers("_alg1.prop_tp") = propPrf.tp.toDouble
      layers("_alg1.prop_fp") = propPrf.fp.toDouble
      layers("_alg1.prop_fn") = propPrf.fn.toDouble

      (prf, propPrf, sampleLabels.size)
    }
    Outcome(prf, propPrf, meter.inputTokens, meter.outputTokens, nSampled, layers.toMap)
  }
}

/** Turns per-dataset layer quantities into the workload's per-layer metrics. */
object Layers {

  /** Sums each quantity over the datasets, except `live_heap_mb` (a level,
    * so the maximum) and `trace.replay_matches` (1 only if every dataset
    * matched, so the minimum). Ratios are formed after summing, from the
    * `_`-prefixed parts, which are then dropped.
    */
  def combine(perDataset: Seq[Map[String, Double]], cores: Int): Map[String, Double] = {
    val keys = perDataset.flatMap(_.keys).distinct
    val sum = keys.map { k =>
      val vs = perDataset.flatMap(_.get(k))
      k -> (if (k.endsWith("live_heap_mb")) vs.max
            else if (k == "trace.replay_matches") vs.min
            else vs.sum)
    }.toMap
    def get(k: String): Double = sum.getOrElse(k, 0.0)
    def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den
    def busy(layer: String): Double = ratio(get(s"$layer.task_s"), get(s"$layer.wall_s") * cores)
    val prop = PRF(get("_alg1.prop_tp").toLong, get("_alg1.prop_fp").toLong,
                   get("_alg1.prop_fn").toLong, 0L)
    sum.filterNot(_._1.startsWith("_")) ++ Map(
      "features.fit.busy_share"    -> busy("features.fit"),
      "detector.fit.busy_share"    -> busy("detector.fit"),
      "labeling.label_accuracy"    -> ratio(get("_labeling.correct"), get("_labeling.labels")),
      "alg1.prop_f1"               -> prop.f1,
      "train_join.pos_ratio"       -> ratio(get("_train_join.pos_rows"), get("train_join.train_rows")),
    )
  }
}
