#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Smoke: every workload at a tiny size, untraced and traced, prints every
metric BENCHMARK.json names, with its unit, and passes its gate.  Gate: a
run checked against a deliberately wrong reference fails, with a nonzero
exit.  Isolation: in a directory holding only BENCHMARK.json and the
benchmark, the command fails without printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, cwd=ROOT):
    cmd = list(SPEC["command"]) + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p, result


class Smoke(unittest.TestCase):
    def check(self, workload, trace, metrics):
        p, r = run("--workload", workload, "--seed", "1", "--seconds", "2",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        self.assertIsNotNone(r, p.stdout[-2000:])
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(set(r["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = r["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertIn('"git_sha"', p.stdout)  # the stamp line
        return p

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                p = self.check(w["name"], 1, SPEC["per_layer"])
                self.assertIn("insert ladder", p.stdout)
                self.assertIn("the gap is", p.stdout)


class Gate(unittest.TestCase):
    def test_wrong_reference_trips_the_gate(self):
        p, r = run("--workload", "ingest", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--smoke", "--wrong-reference")
        self.assertNotEqual(p.returncode, 0)
        self.assertIsNotNone(r)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertIn("GATE:", p.stdout)


class Isolation(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(d) / path)
            p, r = run("--workload", "ingest", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertIsNone(r)


if __name__ == "__main__":
    sys.exit(unittest.main())
