"""Turns the raw samples of one benchmark run into its result line.

The JVM side (``src/repro/perfbench/Main.scala``) writes every call, pass,
per-layer quantity and span it measured. This module reduces them to the
metrics that ``BENCHMARK.json`` declares: medians over passes, the self time
of spans, and a check that the names printed are exactly the names declared.
"""

from statistics import median


def union_length(intervals, lo, hi):
    """Length of the union of ``(start, end)`` intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the union of its children's intervals.

    Children may overlap (the per-attribute clustering spans run on several
    threads), so their durations are not simply subtracted."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - union_length(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def unspanned_by_pass(spans):
    """Pass -> root time that falls in no layer span, summed over the
    datasets of the pass. The pass is the last part of the run id."""
    own = self_times(spans)
    out = {}
    for s in spans:
        if s["parent"] == -1:
            p = int(s["run"].rsplit("/", 1)[1])
            out[p] = out.get(p, 0.0) + own[s["id"]]
    return out


def _f1(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def end_to_end(raw):
    """The end-to-end metrics: set-up time, median pass time, F1, tokens and
    the share of calls that passed their output check."""
    setup = raw["setup"]
    timed = [c for c in raw["calls"] if c["phase"] == "timed"]
    by_pass = {}
    for c in timed:
        by_pass.setdefault(c["pass"], []).append(c)

    def per_pass(fn):
        return median([fn(cs) for cs in by_pass.values()])

    def micro_f1(cs):
        return _f1(sum(c["tp"] for c in cs), sum(c["fp"] for c in cs),
                   sum(c["fn"] for c in cs))

    calls = raw["calls"]
    return {
        "setup_s": (setup["session_s"] + median(setup["generate_s"])
                    + setup["warmup_s"], "s"),
        "run_s": (median(p["wall_s"] for p in raw["passes"]), "s"),
        "f1": (per_pass(micro_f1), "ratio"),
        "f1_min": (per_pass(lambda cs: min(micro_f1([c]) for c in cs)), "ratio"),
        "llm_input_tokens": (per_pass(lambda cs: sum(c["input_tokens"] for c in cs)),
                             "tokens"),
        "llm_output_tokens": (per_pass(lambda cs: sum(c["output_tokens"] for c in cs)),
                              "tokens"),
        "ok_ratio": (sum(1 for c in calls if not c["error"]) / len(calls), "ratio"),
    }


def per_layer(raw, units):
    """Median over traced passes of each per-layer metric, plus the root time
    no layer span covers. ``units`` maps each declared name to its unit."""
    passes = raw["layers"]
    names = sorted({k for p in passes for k in p["metrics"]})
    out = {n: (median(p["metrics"][n] for p in passes if n in p["metrics"]), units.get(n, ""))
           for n in names}
    # Spans of the warm-up pass are not measured passes.
    unspanned = [v for p, v in unspanned_by_pass(raw["spans"]).items()
                 if p in {q["pass"] for q in passes}]
    if unspanned:
        out["trace.unspanned_s"] = (median(unspanned), units.get("trace.unspanned_s", ""))
    return out


def name_problems(metrics, declared):
    """Names printed but not declared, and declared but not printed."""
    printed, declared = set(metrics), set(declared)
    return ([f"undeclared metric {n}" for n in sorted(printed - declared)]
            + [f"missing metric {n}" for n in sorted(declared - printed)])


def result(raw, trace, spec):
    """The result object of a run: correct, attempted, failed and metrics."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = per_layer(raw, units) if trace else end_to_end(raw)
    problems = name_problems(metrics, units)
    problems += [f"{n}: unit {u}, declared {units[n]}"
                 for n, (_, u) in metrics.items() if n in units and u != units[n]]
    calls = raw["calls"]
    failed = [c for c in calls if c["error"]]
    problems += [f"{c['phase']} {c['dataset']} pass {c['pass']}: {c['error']}" for c in failed]
    return problems, {
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(metrics.items())},
    }
