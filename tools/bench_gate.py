#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Compares the `items_per_second` counter of selected benchmarks in a fresh
run against a committed baseline and fails (exit 1) when any of them
regresses by more than the tolerance. CI's perf-smoke job drives it as:

    python3 tools/bench_gate.py \
        --baseline results/BENCH_micro.json \
        --current  /tmp/bench_micro_now.json \
        --benchmark 'BM_NetworkRoundThroughput/4096' \
        --tolerance 0.25

Only throughput counters are compared — absolute wall-clock on shared CI
runners is too noisy, and items/s at fixed n drifts less than ns/op. The
baseline file is the one run_benches.sh commits from a quiet machine; the
tolerance (default 25%) absorbs runner-to-runner variance, not real
regressions (the arena refactor moved this counter by >100%).

A second, independent gate diffs "arbmis.metrics.v2" dumps (the --metrics=
output of the bench binaries; see docs/OBSERVABILITY.md). Unlike timing,
those counters are deterministic in (graph, seed, algorithm), so selected
counters are compared by EXACT equality — any drift means the simulation
semantics changed, not the machine:

    python3 tools/bench_gate.py \
        --metrics-baseline results/BENCH_metrics_smoke.json \
        --metrics-current  /tmp/metrics_now.json \
        --metric sim.messages --metric sim.rounds --metric sim.rng_draws

Both gates may be combined in one invocation; the gate fails if either
does.

Stdlib only: the image has no third-party Python packages.
"""

import argparse
import json
import sys


def load_items_per_second(path):
    """Returns {benchmark name: items_per_second} from a gbench JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for row in doc.get("benchmarks", []):
        if "items_per_second" in row:
            out[row["name"]] = float(row["items_per_second"])
    return out


def load_metrics_counters(path):
    """Returns the counters dict of an "arbmis.metrics.v2" dump."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != "arbmis.metrics.v2":
        raise ValueError(f"{path}: schema {schema!r} is not "
                         "'arbmis.metrics.v2'")
    return doc.get("counters", {})


def regen_hint(args):
    """How to rebuild the committed metrics baseline, for error messages."""
    if args.regen_command:
        return args.regen_command
    return (f"re-run the workload that produced {args.metrics_baseline} "
            f"(see the CI job invoking this gate) and commit the "
            f"refreshed file")


def gate_metrics(args):
    """Exact-equality diff of selected counters; returns failure count."""
    baseline = load_metrics_counters(args.metrics_baseline)
    current = load_metrics_counters(args.metrics_current)
    failures = 0
    for name in args.metrics:
        if name not in baseline:
            # A missing counter usually means the baseline predates the
            # counter, not that the code regressed — say exactly which
            # counter and how to regenerate, or every contributor rediscovers
            # the fix from the CI logs.
            print(f"GATE ERROR: counter {name!r} missing from baseline "
                  f"{args.metrics_baseline}\n"
                  f"  The committed baseline does not know this counter. "
                  f"To regenerate:\n"
                  f"    {regen_hint(args)}")
            failures += 1
            continue
        if name not in current:
            print(f"GATE ERROR: counter {name!r} missing from current run "
                  f"{args.metrics_current}")
            failures += 1
            continue
        base, cur = baseline[name], current[name]
        verdict = "OK" if base == cur else "DRIFT"
        print(f"{verdict}: {name}: baseline {base}, current {cur}")
        if base != cur:
            failures += 1
    return failures


def gate_throughput(args):
    """Tolerance gate over gbench items/s; returns failure count."""
    baseline = load_items_per_second(args.baseline)
    current = load_items_per_second(args.current)

    failures = 0
    for name in args.benchmarks:
        if name not in baseline:
            print(f"GATE ERROR: {name!r} missing from baseline "
                  f"{args.baseline}")
            failures += 1
            continue
        if name not in current:
            print(f"GATE ERROR: {name!r} missing from current run "
                  f"{args.current}")
            failures += 1
            continue
        base = baseline[name]
        cur = current[name]
        floor = base * (1.0 - args.tolerance)
        ratio = cur / base if base > 0 else float("inf")
        verdict = "OK" if cur >= floor else "REGRESSION"
        print(f"{verdict}: {name}: baseline {base:.3e} items/s, "
              f"current {cur:.3e} items/s ({ratio:.2f}x, floor "
              f"{floor:.3e})")
        if cur < floor:
            failures += 1
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        help="committed gbench JSON (e.g. results/BENCH_micro.json)")
    parser.add_argument("--current",
                        help="gbench JSON from the fresh run under test")
    parser.add_argument("--benchmark", action="append", default=[],
                        dest="benchmarks",
                        help="benchmark name to gate on (repeatable)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--metrics-baseline",
                        help="committed arbmis.metrics.v2 JSON baseline")
    parser.add_argument("--metrics-current",
                        help="arbmis.metrics.v2 JSON from the run under test")
    parser.add_argument("--metric", action="append", default=[],
                        dest="metrics",
                        help="counter name to diff by exact equality "
                             "(repeatable)")
    parser.add_argument("--regen-command", default=None,
                        help="exact command that regenerates the metrics "
                             "baseline; echoed in missing-counter errors")
    args = parser.parse_args(argv)

    throughput = bool(args.benchmarks)
    metrics = bool(args.metrics)
    if throughput and (not args.baseline or not args.current):
        parser.error("--benchmark requires --baseline and --current")
    if metrics and (not args.metrics_baseline or not args.metrics_current):
        parser.error("--metric requires --metrics-baseline and "
                     "--metrics-current")
    if not throughput and not metrics:
        parser.error("nothing to gate: pass --benchmark and/or --metric")

    failures = 0
    if throughput:
        failures += gate_throughput(args)
    if metrics:
        failures += gate_metrics(args)

    if failures:
        print(f"bench gate FAILED: {failures} check(s) out of bounds")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
