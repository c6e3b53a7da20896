#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench/ like run.py does, then checks: the C++ self-test (the
reference computation on hand-checked streams, generator determinism, the
rule catalogue); that one seed yields byte-identical generated inputs and
another seed different ones; that every workload passes a short smoke run
with all correctness checks on and reports exactly the metrics BENCHMARK.json
names; and that the runner fails cleanly, without a result line, when the
library sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bindir = run.build()

    def test_selftest(self):
        out = subprocess.run([os.path.join(self.bindir, "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_same_seed_same_inputs(self):
        load = os.path.join(self.bindir, "perfbench_load")
        for w in run.WORKLOADS:
            dump = lambda seed: subprocess.run(  # noqa: E731
                [load, "--workload", w, "--seed", str(seed),
                 "--dump-inputs", "5000"], capture_output=True).stdout
            first = dump(3)
            self.assertGreater(len(first), 5000, w)
            self.assertEqual(first, dump(3), w)
            self.assertNotEqual(first, dump(4), w)

    def test_workloads_smoke(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({n for n, _ in run.END_TO_END}, names)
        for w in run.WORKLOADS:
            for trace, want in ((0, names), (1, layer)):
                out = bench(w, trace)
                self.assertEqual(out.returncode, 0, w + out.stdout + out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"], w)
                self.assertEqual(result["failed"], 0, w)
                self.assertGreater(result["attempted"], 0, w)
                self.assertEqual(set(result["metrics"]), want, w)

    def test_fails_without_sources(self):
        lone = os.path.join(run.build_dir(), "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream_tcp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
