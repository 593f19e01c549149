#!/usr/bin/env python3
"""Steadiness check of the benchmark: ten untraced runs per workload.

    python3 perfbench/steady.py [--out FILE]

Runs perfbench/run.py once per seed (1000, 1001, ..., 1009) for every
workload of BENCHMARK.json at its run_seconds, and prints, for every
end-to-end metric and for the report's bench.calib_ms, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound, marking each spread above the bound OVER.
Each median is also compared with the first set of the kept record,
perfbench/steadiness.json, as a share of the recorded median: a shift of
bench.calib_ms by a similar share is the machine, not the program. --out
appends this set of runs to the list of sets in FILE; the kept record was
made by running twice with --out perfbench/steadiness.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "steadiness.json")
RUNS = 10
FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))
                        [len("report "):])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers")
    return result["metrics"], report


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2}


def load_sets(path):
    if not os.path.isfile(path):
        return []
    with open(path) as fh:
        return json.load(fh)["sets"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    recorded = load_sets(RECORD)
    base = recorded[0]["workloads"] if recorded else {}
    record = {"date": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
              "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
              "runs": RUNS, "seconds": seconds, "first_seed": FIRST_SEED,
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        series = {}
        for i in range(RUNS):
            metrics, report = run_once(workload, FIRST_SEED + i, seconds)
            for name, m in metrics.items():
                series.setdefault(name, []).append(m["value"])
            series.setdefault("bench.calib_ms", []).append(
                report["bench.calib_ms"])
        rows = record["workloads"][workload] = {}
        print(f"{workload}: {RUNS} runs")
        for name, values in series.items():
            row = rows[name] = describe(values)
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound}" + ("  OVER" if row["spread"] > bound
                                      else ""))
            old = base.get(workload, {}).get(name)
            if old is not None:
                flag += f"  shift {row['median'] / old['median'] - 1:+.4f}"
            print(f"  {name:16s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                  f"spread {row['spread']:.4f}{flag}", flush=True)
    if args.out:
        sets = load_sets(args.out) + [record]
        with open(args.out, "w") as fh:
            json.dump({"sets": sets}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
