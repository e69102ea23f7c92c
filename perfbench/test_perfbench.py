#!/usr/bin/env python3
"""Self-tests of the benchmark (not part of ctest).

Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with a one-second measuring window,
so the whole file takes about two minutes once perfbench is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7, plant="none", cwd=ROOT, script=None):
    """Run the benchmark; returns (exit code, parsed last line or None)."""
    cmd = [sys.executable, str(script or HERE / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--plant", plant]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


class Smoke(unittest.TestCase):
    """Every named metric is printed, with its unit, on every workload."""

    def check(self, workload, trace):
        code, res = run(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return res

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_per_layer(self):
        home = {"paper": "apps.run_ms", "isa": "sched.run_ms",
                "fuzz": "check.record_ms"}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check(w, 1)
                self.assertGreater(res["metrics"][home[w]]["value"], 0)
                self.assertEqual(
                    res["metrics"]["bench.failed_frac"]["value"], 0)


class Planted(unittest.TestCase):
    """Planted failures must be caught and counted."""

    def assertCaught(self, workload, plant):
        for trace in (0, 1):
            code, res = run(workload, trace, plant=plant)
            self.assertEqual(code, 0)
            self.assertFalse(res["correct"])
            self.assertGreater(res["failed"], 0)
            if trace:
                self.assertGreater(
                    res["metrics"]["bench.failed_frac"]["value"], 0)

    def test_wrong_expected_checksum(self):
        self.assertCaught("isa", "checksum")

    def test_replay_divergence(self):
        self.assertCaught("fuzz", "replay")

    def test_swap_slot_bug(self):
        self.assertCaught("fuzz", "slot")


class Determinism(unittest.TestCase):
    """Exact per-layer counts repeat across runs of one seed."""

    EXACT_UNITS = {"count", "ratio", "pp", "MB"}
    TIMED = {"bench.trace_overhead_pct"}

    def test_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run(w, 1, seed=12345)[1]["metrics"]
                b = run(w, 1, seed=12345)[1]["metrics"]
                for name, m in a.items():
                    if m["unit"] in self.EXACT_UNITS and name not in \
                            self.TIMED:
                        self.assertEqual(m["value"], b[name]["value"], name)


class Standalone(unittest.TestCase):
    """Without the simulator sources the benchmark fails cleanly."""

    def test_fails_without_sources(self):
        scratch = ROOT / ".bench_build" / "selftest"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
