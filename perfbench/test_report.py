"""Tests of the benchmark's reporting: medians, self time, metric names.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import re
import unittest

import report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(id, parent, start, end, run="w/d/1", name="x"):
    return {"id": id, "parent": parent, "name": name, "run": run, "start": start, "end": end}


def call(phase="timed", pass_=1, dataset="d", tp=8, fp=2, fn=2, tn=88, error=""):
    return {"phase": phase, "pass": pass_, "dataset": dataset, "wall_s": 1.0,
            "tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "input_tokens": 100, "output_tokens": 10, "error": error}


def raw(calls, passes=(2.0,), layers=(), spans=()):
    return {"setup": {"session_s": 1.0, "generate_s": [3.0, 0.5, 0.7], "warmup_s": 4.0},
            "calls": list(calls),
            "passes": [{"pass": i + 1, "wall_s": w} for i, w in enumerate(passes)],
            "layers": list(layers), "spans": list(spans)}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class SelfTimeTest(unittest.TestCase):

    def test_union_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(report.union_length([(1, 3), (2, 5), (7, 8)], 0, 10), 5)
        self.assertAlmostEqual(report.union_length([(-1, 2), (9, 12)], 0, 10), 3)
        self.assertAlmostEqual(report.union_length([(1, 4), (2, 3)], 0, 10), 3)
        self.assertEqual(report.union_length([], 0, 10), 0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        # Four per-attribute spans on parallel threads under one stage span.
        spans = [span(1, -1, 0, 10), span(2, 1, 2, 8)] + [
            span(3 + i, 2, 2 + i * 0.5, 6 + i * 0.5) for i in range(4)]
        own = report.self_times(spans)
        self.assertAlmostEqual(own[1], 4)      # 10 - [2, 8]
        self.assertAlmostEqual(own[2], 0.5)    # 6 - [2, 7.5]
        self.assertAlmostEqual(own[3], 4)      # leaves keep their duration

    def test_unspanned_sums_root_self_time_per_pass(self):
        spans = [span(1, -1, 0, 10, run="w/a/1"), span(2, 1, 1, 9, run="w/a/1"),
                 span(3, -1, 10, 14, run="w/b/1"), span(4, 3, 10, 13, run="w/b/1"),
                 span(5, -1, 20, 25, run="w/a/2")]
        self.assertEqual(report.unspanned_by_pass(spans), {1: 3.0, 2: 5.0})


class EndToEndTest(unittest.TestCase):

    def test_setup_uses_the_median_generation(self):
        m = report.end_to_end(raw([call()]))
        self.assertAlmostEqual(m["setup_s"][0], 1.0 + 0.7 + 4.0)

    def test_f1_is_micro_averaged_and_f1_min_is_the_worst_dataset(self):
        calls = [call(dataset="a", tp=9, fp=1, fn=1), call(dataset="b", tp=1, fp=1, fn=1)]
        m = report.end_to_end(raw(calls))
        self.assertAlmostEqual(m["f1"][0], 10 / 12)
        self.assertAlmostEqual(m["f1_min"][0], 0.5)

    def test_medians_over_passes_and_untimed_calls_ignored(self):
        calls = [call(phase="warmup", pass_=0, tp=0), call(pass_=1), call(pass_=2)]
        m = report.end_to_end(raw(calls, passes=(3.0, 1.0, 2.0)))
        self.assertEqual(m["run_s"][0], 2.0)
        self.assertEqual(m["llm_input_tokens"][0], 100)
        self.assertAlmostEqual(m["f1"][0], 0.8)


class ResultTest(unittest.TestCase):

    def test_declared_end_to_end_metrics_are_printed(self):
        problems, res = report.result(raw([call()]), False, load_spec())
        self.assertEqual(problems, [])
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (1, 0))
        self.assertEqual(set(res["metrics"]), {m["name"] for m in load_spec()["end_to_end"]})

    def test_a_failed_check_makes_the_result_incorrect(self):
        problems, res = report.result(raw([call(), call(error="TP+FP+FN+TN = 3")]),
                                      False, load_spec())
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))
        self.assertEqual(res["metrics"]["ok_ratio"]["value"], 0.5)
        self.assertTrue(any("TP+FP+FN+TN" in p for p in problems))

    def test_per_layer_metrics_must_match_the_declaration(self):
        spec = load_spec()
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.unspanned_s"]
        layers = [{"pass": 1, "metrics": {n: 1.0 for n in names}},
                  {"pass": 2, "metrics": {n: 3.0 for n in names}}]
        spans = [span(0, -1, 0, 30, run="w/d/0"),  # the warm-up pass
                 span(1, -1, 30, 32, run="w/d/1"), span(2, -1, 35, 39, run="w/d/2")]
        problems, res = report.result(raw([], layers=layers, spans=spans), True, spec)
        self.assertEqual(problems, [])
        self.assertEqual(res["metrics"]["corr.wall_s"]["value"], 2.0)
        self.assertEqual(res["metrics"]["trace.unspanned_s"]["value"], 3.0)

        layers[0]["metrics"]["corr.extra"] = 1.0
        del layers[1]["metrics"]["corr.wall_s"], layers[0]["metrics"]["corr.wall_s"]
        problems, res = report.result(raw([], layers=layers, spans=spans), True, spec)
        self.assertFalse(res["correct"])
        self.assertIn("undeclared metric corr.extra", problems)
        self.assertIn("missing metric corr.wall_s", problems)


class BenchmarkSpecTest(unittest.TestCase):
    """BENCHMARK.json stays within the limits its readers enforce."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_names_units_and_bounds(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], self.NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in metrics:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
