"""Tests of the repository benchmark itself, at tiny sizes.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
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
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("serve_origin", "serve_personalize", "fleet_bl1")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, env=None, script=RUN, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, script, "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and lines, proc.stderr[-2000:]
    return json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_named_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, names in ((0, SPEC["end_to_end"]),
                                 (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    r = result_of(run("--workload", workload, "--tiny",
                                      "--trace", str(trace)))
                    self.assertEqual(
                        set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(set(r["metrics"]),
                                     {m["name"] for m in names})
                    for m in names:
                        got = r["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))


class OracleTest(unittest.TestCase):
    def test_injected_mismatch_raises_failed(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    r = result_of(run("--workload", workload, "--tiny",
                                      "--trace", trace, "--inject-mismatch"))
                    self.assertFalse(r["correct"])
                    self.assertGreaterEqual(r["failed"], 1)


class RefusalTest(unittest.TestCase):
    def assert_refused(self, proc):
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertNotIn('"metrics"', line)

    def test_refuses_when_serve_batch_env_is_set(self):
        env = dict(os.environ, ORIGIN_SERVE_BATCH="1")
        self.assert_refused(run("--workload", "serve_origin", "--tiny",
                                env=env))

    def test_refuses_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "benchmark"),
                            ignore=shutil.ignore_patterns(
                                ".build", ".models", "__pycache__"))
            self.assert_refused(
                run("--workload", "fleet_bl1", "--tiny",
                    script=os.path.join(tmp, "benchmark", "run.py"),
                    cwd=tmp))


if __name__ == "__main__":
    unittest.main()
