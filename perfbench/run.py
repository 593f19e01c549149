#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds perfbench/ (library modules,
the arbmis_serve daemon and the driver) as Release into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and prints as the last stdout
line one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
summarized from the run's spans by trace_summary.py (which also writes the
merged Chrome trace, trace.json, into the run directory).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import trace_summary  # noqa: E402

WORKLOADS = ("offline", "engine", "serve_update", "serve_read")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def configured_source(build_dir):
    """The source directory recorded in the build tree's CMake cache."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as fh:
            for line in fh:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        pass
    return None


def build(build_dir):
    """Configures (once per checkout) and builds the benchmark package;
    returns the paths of the driver and the daemon."""
    for needed in ("src/CMakeLists.txt", "tools/arbmis_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a source checkout")
    source = configured_source(build_dir)
    if source is not None and os.path.realpath(source) != HERE:
        # Configured from another checkout: `cmake --build` would rebuild
        # and time that checkout's sources, not these.
        shutil.rmtree(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
                fail(f"build failed, see {log_path}")
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "arbmis_serve"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary, daemon = build(build_dir)
    info = subprocess.run([binary, "--build-info"], capture_output=True,
                          text=True, check=True).stdout.strip()
    if info != "build=Release":
        fail(f"refusing to time a non-Release build ({info})")

    work_dir = os.path.join(
        build_dir, "runs",
        f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir, "--daemon", daemon],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = [ln for ln in lines if ln.startswith("RESULT ")]
    for ln in lines:
        if not ln.startswith("RESULT "):
            print(ln)
    if proc.returncode != 0 or not result:
        sys.stderr.write(proc.stderr)
        fail(f"driver exited with code {proc.returncode}")
    run = json.loads(result[-1][len("RESULT "):])
    print("report " + json.dumps(run["report"], sort_keys=True))

    if args.trace:
        with open(os.path.join(work_dir, "result.json"), "w") as fh:
            json.dump(run, fh)
        metrics = trace_summary.summarize(work_dir, run["metrics"],
                                          run["report"])
    else:
        metrics = run["metrics"]
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
