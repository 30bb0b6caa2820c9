#!/usr/bin/env bash
# Byte-identity check of the simulated schedule against a base commit.
#
# Builds spongebench, bench_selfperf, bench_recovery and bench_datacenter
# from BASE (a `git archive` export) and from the working tree, runs the
# binaries of each side, and compares with cmp:
#   - spongebench, each benchmark workload at seed 1: the --sim-out file
#     (makespan, append mean/p99, per-layer counters such as sim.events)
#     and the report's trace.* span folds (simulated time per span kind);
#   - bench_selfperf at perf.sh's --chaos-seeds value: its --sim-out,
#     --metrics-out and --trace-out snapshots. Its chaos sweep runs with
#     speculation on, so this half covers the mapred attempt path that the
#     benchmark workloads never speculate on;
#   - bench_recovery at check.sh's smoke shape: its --sim-out (fail-stop
#     crashes, replica failover, the repair loop and the closing GC leak
#     sweep);
#   - bench_datacenter at check.sh's smoke shape: its --sim-out (the
#     multi-rack replay with a tracker-shard outage).
# Exits 1 on any difference, naming the run and file. Host-time numbers
# are not compared. The benchmark sources are only built and run.
#
# Usage: tools/simdiff.sh BASE
#
# The working tree's builds are kept in build-simdiff/ (spongebench) and
# build-simdiff-selfperf/ (the three benches) so reruns are warm; BASE is
# built from scratch each time. Set TMPDIR to move the export and outputs.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"
# perf.sh's default, so these snapshots are the ones its gate 1 compares.
chaos_seeds=5

# build SOURCE_DIR BUILD_DIR TARGET...: configures and builds the targets.
build() {
  if [ ! -f "$2/CMakeCache.txt" ]; then
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "${generator[@]}" >/dev/null
  fi
  cmake --build "$2" --target "${@:3}" -j "$jobs" >/dev/null
}

# same RUN KIND...: cmp's the base and change copies of each output.
status=0
same() {
  local run="$1" kind
  shift
  for kind in "$@"; do
    if cmp "$work/$run.base.$kind" "$work/$run.change.$kind"; then
      echo "simdiff: $run $kind identical" >&2
    else
      echo "simdiff: $run $kind DIFFERS" >&2
      diff "$work/$run.base.$kind" "$work/$run.change.$kind" \
        | head -20 >&2 || true
      status=1
    fi
  done
}

echo "simdiff: building $base_rev and the working tree" >&2
mkdir "$work/base"
git -C "$repo" archive "$base_rev" | tar -x -C "$work/base"
build "$work/base/spongebench" "$work/base-build" spongebench
build "$repo/spongebench" "$repo/build-simdiff" spongebench
build "$work/base" "$work/base-selfperf" bench_selfperf bench_recovery \
  bench_datacenter
build "$repo" "$repo/build-simdiff-selfperf" bench_selfperf bench_recovery \
  bench_datacenter

for workload in skew_sponge skew_disk dc_replay; do
  for side in base change; do
    if [ "$side" = base ]; then
      binary="$work/base-build/spongebench"
    else
      binary="$repo/build-simdiff/spongebench"
    fi
    "$binary" --workload "$workload" --seed 1 --seconds 0.01 --trace 1 \
      --sim-out "$work/$workload.$side.sim" >"$work/$workload.$side.report"
    grep -E '^ +trace\.' "$work/$workload.$side.report" \
      >"$work/$workload.$side.spans" || true
  done
  same "$workload" sim spans
done

for side in base change; do
  if [ "$side" = base ]; then
    benches="$work/base-selfperf/bench"
  else
    benches="$repo/build-simdiff-selfperf/bench"
  fi
  "$benches/bench_selfperf" --chaos-seeds="$chaos_seeds" \
    --out="$work/selfperf.$side.json" \
    --sim-out="$work/selfperf.$side.sim" \
    --metrics-out="$work/selfperf.$side.metrics" \
    --trace-out="$work/selfperf.$side.trace" >/dev/null
  "$benches/bench_recovery" --racks=4 --nodes-per-rack=8 --jobs=60 \
    --crashes=3 --out="$work/recovery.$side.json" \
    --sim-out="$work/recovery.$side.sim" >/dev/null
  "$benches/bench_datacenter" --racks=4 --nodes-per-rack=8 --jobs=80 \
    --out="$work/datacenter.$side.json" \
    --sim-out="$work/datacenter.$side.sim" >/dev/null
done
same selfperf sim metrics trace
same recovery sim
same datacenter sim
exit "$status"
