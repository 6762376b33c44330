#!/usr/bin/env python3
"""The benchmark's own tests: a reduced-size (--smoke) run of every workload
and check, in both modes, plus the proof that the checks catch a wrong
answer. Run from the repository root:

    python3 perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import steady  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self):
        want = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0, "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_of(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], proc.stderr)
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual([(k, v["unit"]) for k, v in res["metrics"].items()], want)
                for name, v in res["metrics"].items():
                    self.assertGreater(v["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        want = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 1, "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_of(proc)
                self.assertTrue(res["correct"], proc.stderr)
                self.assertEqual([(k, v["unit"]) for k, v in res["metrics"].items()], want)
                trace = os.path.join(ROOT, ".bench_build", "traces", "%s-seed7.json" % w["name"])
                with open(trace) as f:
                    spans = json.load(f)
                self.assertTrue(spans["spans"])
                self.assertTrue(all(s["end_s"] >= s["start_s"] for s in spans["spans"]))

    def test_a_corrupted_answer_fails_the_check(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0, "--smoke", "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_of(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertIn("check failed", proc.stderr)

    def test_refuses_to_run_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Steadiness(unittest.TestCase):
    def results(self, workload, values, failed=0):
        return {workload: [{"seed": i, "correct": True, "attempted": 100, "failed": failed,
                            "metrics": {m["name"]: v for m in SPEC["end_to_end"]}}
                           for i, v in enumerate(values)]}

    def compare(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, res in (("a.json", a), ("b.json", b)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump({"results": res}, f)
            return subprocess.run([sys.executable, os.path.join(HERE, "steady.py"), "compare"] + paths,
                                  capture_output=True, text=True).returncode

    def test_quartile_spread(self):
        s = steady.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_compare_accepts_equal_sets_and_flags_a_shift(self):
        steady_values = [1.0, 1.001, 0.999, 1.0, 1.002, 0.998, 1.0, 1.0, 1.001, 0.999]
        w = SPEC["workloads"][0]["name"]
        self.assertEqual(self.compare(self.results(w, steady_values), self.results(w, steady_values)), 0)
        shifted = [v * 2 for v in steady_values]  # lower-is-better metrics get worse
        self.assertEqual(self.compare(self.results(w, steady_values), self.results(w, shifted)), 1)
        self.assertEqual(self.compare(self.results(w, steady_values),
                                      self.results(w, steady_values, failed=1)), 1)

    def test_compare_fails_when_the_sets_cover_different_workloads(self):
        values = [1.0, 1.001, 0.999, 1.0, 1.002, 0.998, 1.0, 1.0, 1.001, 0.999]
        first, second = SPEC["workloads"][0]["name"], SPEC["workloads"][1]["name"]
        both = {**self.results(first, values), **self.results(second, values)}
        self.assertEqual(self.compare(both, both), 0)
        self.assertEqual(self.compare(both, self.results(first, values)), 1)
        self.assertEqual(self.compare(self.results(first, values), self.results(second, values)), 1)
        self.assertEqual(self.compare({}, {}), 1)

    def test_compare_gates_the_setup_spread(self):
        w = SPEC["workloads"][0]["name"]
        steady_values = [1.0, 1.001, 0.999, 1.0, 1.002, 0.998, 1.0, 1.0, 1.001, 0.999]
        wide = [0.5, 1.5, 0.6, 1.4, 1.0, 0.55, 1.45, 1.0, 0.65, 1.35]
        b = self.results(w, steady_values)
        for r, v in zip(b[w], wide):
            r["metrics"]["setup_s"] = v
        self.assertEqual(self.compare(self.results(w, steady_values), b), 1)


if __name__ == "__main__":
    unittest.main()
