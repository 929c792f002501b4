"""Checks BENCHMARK.json's shape and that the benchmark prints exactly the
metrics it declares, with their units.

    python3 -m unittest discover -s perfbench/tests     # from the repo root

The end-to-end checks build the benchmark (first run) and run every
workload briefly, untraced, plus one traced run.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    return p.returncode, p.stdout.strip().splitlines()


class SpecShape(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for p in spec["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(spec["command"]) <= 32)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class CoreTests(unittest.TestCase):
    """Runs the C++ self-tests (tests/core_test.cpp) when GTest is present."""

    def test_perfbench_test_binary(self):
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import run as bench_run
        os.chdir(ROOT)
        self.assertTrue(bench_run.build())
        p = subprocess.run(["cmake", "--build", bench_run.BUILD_DIR, "-j4",
                            "--target", "perfbench_test"],
                           capture_output=True, text=True)
        binary = os.path.join(bench_run.BUILD_DIR, "perfbench_test")
        if p.returncode != 0 and not os.path.exists(binary):
            self.skipTest("perfbench_test not built (GTest missing?)")
        self.assertEqual(p.returncode, 0, p.stdout[-2000:])
        t = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(t.returncode, 0, t.stdout[-3000:])


class PrintedMetrics(unittest.TestCase):
    def check(self, workload, trace, seconds):
        spec = load_spec()
        code, lines = run(workload, trace, seconds)
        self.assertEqual(code, 0, lines[-3:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in
                spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_untraced(self):
        for w in load_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, 1)

    def test_traced(self):
        self.check("lowload_isolated_sweep", 1, 2)


if __name__ == "__main__":
    unittest.main()
