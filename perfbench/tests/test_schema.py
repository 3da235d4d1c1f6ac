#!/usr/bin/env python3
# Copyright 2026 The rvar Authors.
"""Checks BENCHMARK.json, plan.json and the result-line validator of
run.py against each other and against the benchmark's output contract.

    python3 perfbench/tests/test_schema.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(path):
    with open(path) as f:
        return json.load(f)


def table(source, array):
    """The (name, unit) pairs of one MetricSpec array in main.cc."""
    body = source.split(f"constexpr MetricSpec {array}[] = {{", 1)[1]
    body = body.split("};", 1)[0]
    return re.findall(r'\{"([^"]+)",\s*"([^"]+)"\}', body)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_keys_and_limits(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(self.spec["paths"]) <= 16)
        for path in self.spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e, layer = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layer) <= 128)
        names = [m["name"] for m in e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_binary_tables_match(self):
        with open(os.path.join(PERFBENCH, "src", "main.cc")) as f:
            source = f.read()
        for array, key in (("kEndToEnd", "end_to_end"),
                           ("kPerLayer", "per_layer")):
            expected = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(table(source, array), expected)

    def test_plan_covers_every_workload_and_metric(self):
        plan = load(os.path.join(PERFBENCH, "plan.json"))
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertEqual(set(plan["workloads"]), names)
        self.assertEqual(set(plan["unchanged_if_change_confined_to"]), names)
        self.assertIsInstance(plan["held_out_seed"], int)
        for metric in self.spec["end_to_end"]:
            meaning = plan["end_to_end_meaning"][metric["name"]]
            self.assertTrue(set(meaning) == names or set(meaning) == {"all"})
        predicted = {n for p in plan["predictions"] for n in p["per_layer"]}
        layer = {m["name"] for m in self.spec["per_layer"]}
        # Every per-layer metric except the benchmark's own overhead and
        # the by-reason shed splits is tied to an end-to-end metric.
        self.assertEqual(layer - predicted,
                         {"trace.overhead_ratio",
                          "serve.shed_ratio.queue_full",
                          "serve.shed_ratio.watermark",
                          "serve.shed_ratio.tokens",
                          "serve.shed_ratio.deadline"})


class CanonicalConfigTest(unittest.TestCase):
    """The workload configurations in bench_util.cc equal the values
    plan.json records for them."""

    def assignments(self, function):
        with open(os.path.join(PERFBENCH, "src", "bench_util.cc")) as f:
            source = f.read()
        body = source.split(function + "(", 1)[1].split("\n}\n", 1)[0]
        return {k.split(".")[-1]: float(v) for k, v in re.findall(
            r"config\.([\w.]+) = ([0-9.]+)(?: \* 3600\.0)?;", body)}

    def test_configs_match_plan(self):
        plan = load(os.path.join(PERFBENCH, "plan.json"))["canonical_config"]
        suite = self.assignments("sim::SuiteConfig CanonicalSuiteConfig")
        suite["max_period_seconds"] *= 3600.0
        for key, value in plan["suite"].items():
            self.assertEqual(suite[key], value, key)
        predictor = self.assignments(
            "core::PredictorConfig CanonicalPredictorConfig")
        for key, value in plan["predictor"].items():
            self.assertEqual(predictor[key], value, key)
        reduced = self.assignments("sim::SuiteConfig ReducedSuiteConfig")
        for key, value in plan["reduced_suite"].items():
            self.assertEqual(reduced[key], value, key)


class ResultLineTest(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def result(self, trace):
        metrics = self.spec["per_layer" if trace else "end_to_end"]
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]}
                            for m in metrics}}

    def test_valid_results_pass(self):
        self.assertEqual(run.check_result(self.result(False), self.spec,
                                          False), [])
        self.assertEqual(run.check_result(self.result(True), self.spec,
                                          True), [])

    def test_shape_errors_are_caught(self):
        r = self.result(False)
        r["extra"] = 1
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result(False)
        r["attempted"] = 0
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result(False)
        r["failed"] = 1.5
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result(False)
        r["correct"] = "yes"
        self.assertTrue(run.check_result(r, self.spec, False))

    def test_metric_errors_are_caught(self):
        # The per-layer set in place of the end-to-end one.
        self.assertTrue(run.check_result(self.result(True), self.spec, False))
        r = self.result(False)
        del r["metrics"]["setup_s"]
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result(False)
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result(False)
        r["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result(False)
        r["metrics"]["setup_s"]["value"] = "1.0"
        self.assertTrue(run.check_result(r, self.spec, False))


if __name__ == "__main__":
    unittest.main()
