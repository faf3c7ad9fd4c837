package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import repro.core.{PRF, Sampling, ZeroED, ZeroEDConfig}
import repro.data.{Datasets, EDataset}

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Measures `ZeroED.run` on one workload and writes the raw samples as JSON.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>
  * }}}
  *
  * The load is a closed loop with one caller: each `ZeroED.run` waits for the
  * previous one, as the table harnesses call it. A pass runs every dataset of
  * the workload once, on tables generated for that pass from `--seed` (see
  * [[dataSeed]]). Set-up is the session start, table generation (once per
  * pass; its median counts) and one untimed warm-up pass on smaller tables
  * ([[WarmupScale]]). Then passes repeat until `--seconds` have passed:
  * untraced `ZeroED.run` calls with `--trace 0`; with `--trace 1`, a traced
  * [[Replay]] followed by the untraced call on the same tables. Every call's
  * output is checked.
  * `perfbench/run.py` builds this program and turns its samples into metrics.
  */
object Main {

  /** A workload: the datasets of one pass, each at the paper's tuple count. */
  final case class Workload(name: String, datasets: Seq[String])

  val Workloads: Seq[Workload] = Seq(
    Workload("rayyan", Seq("rayyan")),
    Workload("flights", Seq("flights")),
  )

  /** The data seed of pass `pass`. Pass 1 uses `--seed` itself, so seed 7
    * gives the tables of EXPERIMENTS.md; the warm-up (pass 0) and each later
    * pass run on tables of their own.
    */
  def dataSeed(seed: Long, pass: Int): Long = seed + 1000003L * (pass - 1)

  /** The warm-up pass runs on tables of this share of the paper's tuple
    * count: it warms the JIT and Spark about as well as a full pass (the
    * passes after it take the same time) at less cost.
    */
  val WarmupScale = 0.1

  /** The outcome of one `ZeroED.run` (or of its traced replay). */
  final case class Call(phase: String, pass: Int, dataset: String, wallS: Double,
                        prf: PRF, propagation: PRF, inputTokens: Long, outputTokens: Long,
                        error: String) {
    /** What a traced replay must reproduce exactly. */
    def outputs: (PRF, PRF, Long, Long) = (prf, propagation, inputTokens, outputTokens)
  }

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = Workloads.find(w => opts.get("workload").contains(w.name)).getOrElse {
      System.err.println(s"--workload must be one of ${Workloads.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val cfg = ZeroEDConfig()

    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      // The settings of Jobs.session and SparkSpec.shared.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sessionS = secondsSince(t0)

    // Each pass generates and caches its own tables, outside its timing.
    val generateS = Seq.newBuilder[Double]
    def tablesOf(pass: Int): Seq[(EDataset, Long)] = {
      spark.catalog.clearCache()
      val t = System.nanoTime()
      val tables = workload.datasets.map { name =>
        val spec = Datasets.byName(name).copy(seed = dataSeed(seed, pass))
        val ds = Datasets.generate(spark, spec, if (pass == 0) WarmupScale else 1.0)
        (ds, ds.nTuples) // count() materializes the cached table
      }
      generateS += secondsSince(t)
      tables
    }

    val calls = Seq.newBuilder[Call]
    def record(call: Call): Call = { calls += call; call }

    def untraced(phase: String, pass: Int, ds: EDataset, n: Long): Call = {
      val t = System.nanoTime()
      record(try {
        val r = ZeroED.run(spark, ds, cfg)
        checked(Call(phase, pass, ds.name, secondsSince(t), r.metrics, r.propagation,
                     r.inputTokens, r.outputTokens, ""), ds, n, r.nSampledCells, cfg)
      } catch {
        case NonFatal(e) => failed(phase, pass, ds.name, secondsSince(t), e)
      })
    }

    val work = new WorkCounter
    spark.sparkContext.addSparkListener(work)
    val tracer = new Tracer(spark.sparkContext, work)

    /** The traced replay of `ds`, then the untraced call it must match.
      * Returns the dataset's layer quantities.
      */
    def traced(phase: String, pass: Int, ds: EDataset, n: Long): Map[String, Double] = {
      val t = System.nanoTime()
      val replay =
        try {
          val r = Replay.run(spark, ds, cfg, tracer, s"${workload.name}/${ds.name}/$pass")
          Some((record(checked(Call("replay", pass, ds.name, secondsSince(t), r.metrics,
            r.propagation, r.inputTokens, r.outputTokens, ""), ds, n, r.nSampledCells, cfg)), r))
        } catch {
          case NonFatal(e) =>
            record(failed("replay", pass, ds.name, secondsSince(t), e))
            None
        }
      val plain = untraced(phase, pass, ds, n)
      replay.fold(Map.empty[String, Double]) { case (call, r) =>
        r.layers ++ Map(
          "trace.overhead_s" -> (call.wallS - plain.wallS),
          "trace.replay_matches" -> (if (call.outputs == plain.outputs) 1.0 else 0.0))
      }
    }

    // With tracing, the warm-up also runs the replay, so that the replay's
    // own code is as warm as the pipeline's when the overhead is measured.
    val warmupTables = tablesOf(0)
    val w0 = System.nanoTime()
    warmupTables.foreach { case (ds, n) =>
      if (trace) traced("warmup", 0, ds, n) else untraced("warmup", 0, ds, n)
    }
    val warmupS = secondsSince(w0)

    val cores = spark.sparkContext.defaultParallelism
    val passes = Seq.newBuilder[Map[String, Any]]
    val layers = Seq.newBuilder[Map[String, Any]]
    val loop0 = System.nanoTime()
    var pass = 1
    while (pass == 1 || secondsSince(loop0) < seconds) {
      val tables = tablesOf(pass)
      val p0 = System.nanoTime()
      val perDataset = tables.map { case (ds, n) =>
        if (trace) traced("untraced", pass, ds, n)
        else { untraced("timed", pass, ds, n); Map.empty[String, Double] }
      }
      passes += Map("pass" -> pass, "wall_s" -> secondsSince(p0), "data_seed" -> dataSeed(seed, pass))
      if (trace) layers += Map("pass" -> pass,
                               "metrics" -> Layers.combine(perDataset.filter(_.nonEmpty), cores))
      pass += 1
    }

    val out = Map(
      "provenance" -> provenance(spark, workload, seed),
      "setup" -> Map("session_s" -> sessionS, "generate_s" -> generateS.result(),
                     "warmup_s" -> warmupS),
      "calls" -> calls.result().map(c => Map(
        "phase" -> c.phase, "pass" -> c.pass, "dataset" -> c.dataset, "wall_s" -> c.wallS,
        "tp" -> c.prf.tp, "fp" -> c.prf.fp, "fn" -> c.prf.fn, "tn" -> c.prf.tn,
        "input_tokens" -> c.inputTokens, "output_tokens" -> c.outputTokens, "error" -> c.error)),
      "passes" -> passes.result(),
      "layers" -> layers.result(),
      "spans" -> tracer.recorded.map(s => Map(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "run" -> s.run,
        "start" -> s.start, "end" -> s.end, "counters" -> s.counters)),
    )
    spark.stop()
    Files.write(Paths.get(opts("out")),
                Serialization.write(out)(DefaultFormats).getBytes(StandardCharsets.UTF_8))
  }

  /** The output check of one call: every cell evaluated exactly once, tokens
    * spent, no more sampled cells than clusters, and a finite F1.
    */
  def checked(c: Call, ds: EDataset, nTuples: Long, nSampledCells: Int,
              cfg: ZeroEDConfig): Call = {
    val cells = nTuples * ds.attrs.size
    val maxSampled = Sampling.clusterCount(nTuples, cfg.labelRate).toLong * ds.attrs.size
    val p = c.prf
    val problems = Seq(
      (p.tp + p.fp + p.fn + p.tn != cells) -> s"TP+FP+FN+TN = ${p.tp + p.fp + p.fn + p.tn}, not $cells cells",
      (c.inputTokens <= 0 || c.outputTokens <= 0) -> s"tokens ${c.inputTokens}/${c.outputTokens}",
      (nSampledCells > maxSampled) -> s"$nSampledCells sampled cells > $maxSampled clusters",
      (p.f1.isNaN || p.f1.isInfinite) -> s"F1 ${p.f1}",
    ).collect { case (true, msg) => msg }
    c.copy(error = problems.mkString("; "))
  }

  def failed(phase: String, pass: Int, dataset: String, wallS: Double, e: Throwable): Call = {
    val zero = PRF(0, 0, 0, 0)
    Call(phase, pass, dataset, wallS, zero, zero, 0L, 0L, s"${e.getClass.getName}: ${e.getMessage}")
  }

  def provenance(spark: SparkSession, workload: Workload, seed: Long): Map[String, Any] = {
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    Map(
      "workload" -> workload.name,
      "seed" -> seed,
      "master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "driver_xmx" -> jvmArgs.filter(_.startsWith("-Xmx")).lastOption.map(_.drop(4)).getOrElse(""),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark" -> spark.version,
    )
  }

  def secondsSince(t: Long): Double = (System.nanoTime() - t) / 1e9
}
