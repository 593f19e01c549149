#!/usr/bin/env python3
"""Tests of the benchmark itself: seed discipline and its failure mode.

    python3 perfbench/test_bench.py

Runs every workload through perfbench/run.py at --seconds 1 (the smallest
fixed amount of work): the same seed twice must give identical rounds,
messages, request counts, reply label hashes and graph content hashes, and
a different seed must give different graph content. Also checks that
run.py fails without printing a result when the library sources are not
next to it. Takes about a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.abspath(
    os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))

# Report fields that must repeat exactly for a seed.
EXACT = {
    "offline": ("rounds_total", "messages_total", "requests",
                "labels_digest", "content_hash"),
    "engine": ("rounds_total", "requests", "labels_digest", "content_hash"),
    "serve_update": ("requests", "updates", "residual_total", "rounds",
                     "labels_digest", "content_hash"),
    "serve_read": ("requests", "rounds", "labels_digest", "content_hash"),
}


def run(workload, seed, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=cwd)


def report_of(workload, seed):
    proc = run(workload, seed)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    report = next(ln for ln in lines if ln.startswith("report "))
    return json.loads(report[len("report "):])


class SeedDiscipline(unittest.TestCase):
    def check(self, workload):
        first = report_of(workload, 101)
        again = report_of(workload, 101)
        other = report_of(workload, 202)
        for key in EXACT[workload]:
            self.assertEqual(first[key], again[key], f"{workload}: {key}")
        self.assertNotEqual(first["content_hash"], other["content_hash"])

    def test_offline(self):
        self.check("offline")

    def test_engine(self):
        self.check("engine")

    def test_serve_update(self):
        self.check("serve_update")

    def test_serve_read(self):
        self.check("serve_read")


class Standalone(unittest.TestCase):
    def test_fails_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        lone = os.path.join(TARGET, "lone")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        proc = run("serve_read", 1, cwd=lone,
                   script=os.path.join(lone, "perfbench", "run.py"))
        shutil.rmtree(lone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
