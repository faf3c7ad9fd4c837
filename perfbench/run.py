"""Benchmark of ZeroED end to end, with a traced per-layer replay.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the pipeline packages
of ``src/main/scala`` and this benchmark's Scala sources with the Scala
compiler that ships in Spark's jars (``$SPARK_HOME/jars``) into
``perfbench/build``; later runs reuse the classes while the sources are
unchanged. The run then starts one JVM with Spark in ``local[*]``, which
measures the workload for ``--seconds`` and writes its samples to a file;
this script reduces them to the metrics ``BENCHMARK.json`` declares and
prints the result as the last line of its output. It exits non-zero if a
call fails its output check or the printed metric names differ from the
declared ones.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import report  # noqa: E402

BUILD = os.path.join(HERE, "build")
SCALA_DIRS = [os.path.join(ROOT, "src", "main", "scala", "repro", p)
              for p in ("core", "data", "llm", "util")] + [os.path.join(HERE, "src")]
DRIVER_HEAP = "4g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

# The module opens of build.sbt's sparkJvmOpens.
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit))) if submit else ""
    jars = os.path.join(home, "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Spark with a Scala compiler found; set SPARK_HOME")
    return jars


def sources():
    files = sorted(f for d in SCALA_DIRS
                   for f in glob.glob(os.path.join(d, "**", "*.scala"), recursive=True))
    missing = [d for d in SCALA_DIRS if not os.path.isdir(d)]
    if missing:
        fail(f"source directories missing: {', '.join(os.path.relpath(d, ROOT) for d in missing)}"
             " (run from a checkout of the repository root)")
    return files


def build(jars):
    """Compile the sources unless the classes of the same sources exist."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = os.path.join(BUILD, "classes.sha256")
    classes = os.path.join(BUILD, "classes")
    if os.path.exists(stamp) and open(stamp).read() == digest.hexdigest():
        return classes, digest.hexdigest()
    shutil.rmtree(BUILD, ignore_errors=True)
    os.makedirs(classes)
    cmd = ["java", "-Xmx2g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", classes] + files
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("compilation failed")
    with open(stamp, "w") as fh:
        fh.write(digest.hexdigest())
    return classes, digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def measure(classes, jars, args):
    """Run the JVM side; returns its raw samples."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    out = os.path.join(BUILD, f"samples-{tag}.json")
    log = os.path.join(BUILD, f"jvm-{tag}.log")
    if os.path.exists(out):
        os.remove(out)
    # The throughput collector suits this batch load; on a 4-core machine it
    # took about 13% off each pass compared with the default G1.
    cmd = (["java", f"-Xmx{DRIVER_HEAP}", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={tmp}", f"-Dspark.sql.warehouse.dir={tmp}/warehouse",
            "-Dspark.driver.host=127.0.0.1"] + JVM_OPENS
           + ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
              "repro.perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out])
    with open(log, "w") as fh:
        # SPARK_LOCAL_DIRS would override spark.local.dir.
        env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=BUILD, env=env)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not os.path.exists(out):
        with open(log, errors="replace") as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        fail(f"measurement failed ({code}); log in {os.path.relpath(log, ROOT)}")
    with open(out) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    jars = spark_jars()
    classes, source_sha = build(jars)
    raw = measure(classes, jars, args)
    problems, res = report.result(raw, args.trace == 1, spec)

    prov = dict(raw["provenance"], git_sha=git_sha(), source_sha256=source_sha)
    passes = len(raw["passes"])
    print(json.dumps({"provenance": prov, "passes": passes,
                      "note": f"metrics are medians over {passes} measured passes"}))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
