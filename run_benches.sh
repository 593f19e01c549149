#!/bin/bash
# Runs every experiment binary in bench/ and captures its report under
# results/. The list is the one bench/CMakeLists.txt writes into the build
# tree: bench/bench_targets.txt, one arbmis_bench() target a line, in
# declaration order. Fails on the first bench that exits nonzero, so a
# broken experiment (e.g. a fault-tolerance cell that misses
# certification) fails the whole sweep instead of scrolling by.
#
# Timing results are only meaningful from a Release tree, so the script
# refuses anything else, twice over: the configure-time stamp written by
# the top-level CMakeLists must say Release, and each timing-sensitive
# binary must report build=Release via --build-info (NDEBUG check compiled
# into the binary itself). Point BUILD_DIR at build-bench to use the
# dedicated `bench` preset tree; the default tree is Release too.
set -euo pipefail
# Run from the checkout holding this script, so results/ and a relative
# BUILD_DIR resolve against it wherever it is cloned.
cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build}"

stamp="${BUILD_DIR}/arbmis_build_type.txt"
if [[ ! -f "$stamp" ]]; then
  echo "=== MISSING ${stamp} (reconfigure: cmake --preset bench) ===" >&2
  exit 1
fi
build_type="$(tr -d '[:space:]' < "$stamp")"
if [[ "$build_type" != "Release" ]]; then
  echo "=== REFUSING non-Release bench tree: ${BUILD_DIR} is ${build_type}" \
       "(use cmake --preset bench / --preset default) ===" >&2
  exit 1
fi

targets="${BUILD_DIR}/bench/bench_targets.txt"
if [[ ! -f "$targets" ]]; then
  echo "=== MISSING ${targets} (reconfigure: cmake --preset bench) ===" >&2
  exit 1
fi
mapfile -t BENCHES < "$targets"

mkdir -p results
for name in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${name}"
  if [[ ! -x "$bin" ]]; then
    echo "=== MISSING $name (build bench targets first) ===" >&2
    exit 1
  fi
  if ! "$bin" --build-info | grep -q 'build=Release'; then
    echo "=== REFUSING $name: --build-info is not build=Release ===" >&2
    exit 1
  fi
  echo "=== running $name ==="
  case "$name" in
    bench_micro)
      # google-benchmark binary: its wrapper main translates --json into
      # native gbench flags; bench_common.h flags are not understood.
      timeout 3000 "$bin" --json results/BENCH_micro.json \
        > "results/${name}.txt" 2>&1
      ;;
    bench_sim_parallel)
      timeout 3000 "$bin" --json results/BENCH_sim_parallel.json "$@" \
        > "results/${name}.txt" 2>&1
      ;;
    bench_mmap_graph)
      timeout 3000 "$bin" --json results/BENCH_mmap_graph.json "$@" \
        > "results/${name}.txt" 2>&1
      ;;
    bench_engine)
      timeout 3000 "$bin" --json results/BENCH_engine.json "$@" \
        > "results/${name}.txt" 2>&1
      ;;
    bench_serve)
      timeout 3000 "$bin" --json results/BENCH_serve.json "$@" \
        > "results/${name}.txt" 2>&1
      ;;
    *)
      timeout 3000 "$bin" "$@" > "results/${name}.txt" 2>&1
      ;;
  esac
  echo "=== $name done ==="
done
echo ALL_BENCHES_DONE
