#!/usr/bin/env bash
# Self-performance gate (DESIGN.md "Performance engineering"). Two gates
# on one RelWithDebInfo build:
#
#   1. Run-to-run determinism: bench_selfperf's fixed suite twice; sim
#      summary, metrics snapshot, and trace must be byte-identical between
#      the runs.
#   2. Datacenter and recovery artifacts: bench_datacenter (16 racks x 32
#      nodes, 1,200 jobs) and bench_recovery (16 racks x 32 nodes, 600
#      tasks, 6 crashes) at their default shapes. Each committed
#      BENCH_datacenter.json / BENCH_recovery.json must have the same shape
#      and build type, and its simulated digest must equal the fresh run's —
#      a stale or differently-shaped artifact fails the gate instead of
#      being compared.
#
# The second suite run writes BENCH_selfperf.json (or --out), with the
# datacenter numbers spliced in at the end. The report holds this build's
# own wall times only; comparing two builds means running both, in
# alternating order, on one host. To re-record BENCH_datacenter.json /
# BENCH_recovery.json, re-run bench_datacenter / bench_recovery.
#
# Usage: tools/perf.sh [--chaos-seeds=N] [--out=PATH] [--keep-work]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="$repo/BENCH_selfperf.json"
seeds=5
keep_work=0
for arg in "$@"; do
  case "$arg" in
    --chaos-seeds=*) seeds="${arg#*=}" ;;
    --out=*) out="${arg#*=}" ;;
    --keep-work) keep_work=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

build="$repo/build-perf"
work="$(mktemp -d)"
trap '[ "$keep_work" = 1 ] && echo "work dir kept: $work" || rm -rf "$work"' EXIT

# Raw value text of the first `"key": value` in a report (quotes kept for
# strings), or empty when the key is absent.
field() { grep -o "\"$2\": [^,}]*" "$1" | head -1 | sed 's/^[^:]*: //'; }

# Refuses (exit 1) unless the committed report `name` (copied to
# `committed`) and `fresh` agree on every key.
same_shape() {
  local name="$1" committed="$2" fresh="$3"
  shift 3
  for key in "$@"; do
    local want got
    want="$(field "$committed" "$key")"
    got="$(field "$fresh" "$key")"
    if [ "$want" != "$got" ]; then
      echo "  committed $name: $key is ${want:-<missing>}, this run has $got;" \
           "refusing to compare — re-record it at this shape" >&2
      exit 1
    fi
  done
}

committed_dc="$repo/BENCH_datacenter.json"
committed_rc="$repo/BENCH_recovery.json"

echo "== building ($build)"
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build" --target bench_selfperf bench_datacenter \
  bench_recovery -j "$(nproc)"

echo
echo "== gate 1: run-to-run determinism"
"$build/bench/bench_selfperf" --chaos-seeds="$seeds" \
  --out="$work/run1.json" --sim-out="$work/run1_sim.json" \
  --metrics-out="$work/run1_metrics.json" \
  --trace-out="$work/run1_trace.json"
echo
"$build/bench/bench_selfperf" --chaos-seeds="$seeds" --out="$out" \
  --sim-out="$work/run2_sim.json" \
  --metrics-out="$work/run2_metrics.json" \
  --trace-out="$work/run2_trace.json"
echo
for pair in sim metrics trace; do
  if cmp -s "$work/run1_${pair}.json" "$work/run2_${pair}.json"; then
    echo "  $pair snapshot: identical"
  else
    echo "  $pair snapshot: DIFFERS — a run-to-run nondeterminism crept into the simulation" >&2
    diff "$work/run1_${pair}.json" "$work/run2_${pair}.json" | head -40 >&2 || true
    exit 1
  fi
done

echo
echo "== gate 2: datacenter and recovery artifacts (default shapes)"
"$build/bench/bench_datacenter" --out="$work/dc.json"
dc_wall="$(field "$work/dc.json" wall_ms)"
dc_jobs="$(field "$work/dc.json" jobs)"
if [ -f "$committed_dc" ]; then
  same_shape BENCH_datacenter.json "$committed_dc" "$work/dc.json" \
    bench racks nodes jobs seed ssd_bytes_per_node build_type
  if [ "$(field "$committed_dc" digest)" = "$(field "$work/dc.json" digest)" ]; then
    echo "  committed BENCH_datacenter.json matches this build's simulation"
  else
    echo "  committed BENCH_datacenter.json is stale: digest" \
         "$(field "$committed_dc" digest) vs $(field "$work/dc.json" digest)" >&2
    exit 1
  fi
  echo "  wall: committed $(field "$committed_dc" wall_ms) ms" \
       "($(field "$committed_dc" host_cores) cores), now ${dc_wall} ms"
fi
"$build/bench/bench_recovery" --out="$work/rc.json" >/dev/null
if [ -f "$committed_rc" ]; then
  same_shape BENCH_recovery.json "$committed_rc" "$work/rc.json" \
    bench racks nodes jobs crashes crash_at_us seed build_type
  if [ "$(field "$committed_rc" digest)" = "$(field "$work/rc.json" digest)" ]; then
    echo "  committed BENCH_recovery.json matches this build's simulation"
  else
    echo "  committed BENCH_recovery.json is stale: digest" \
         "$(field "$committed_rc" digest) vs $(field "$work/rc.json" digest)" >&2
    exit 1
  fi
fi

# Splice the datacenter numbers into the report (drop the closing brace,
# append the extra keys, close again).
tmp="$(mktemp)"
sed '$d' "$out" > "$tmp"
{
  cat "$tmp"
  echo ",
  \"datacenter_wall_ms\": $dc_wall,
  \"datacenter_jobs\": $dc_jobs
}"
} > "$out"
rm -f "$tmp"

echo
echo "report: $out"
grep -E '"(host_cores|build_type|total_wall_ms|datacenter_wall_ms|events_per_sec|peak_rss_bytes)"' "$out" || true
echo "self-perf gate passed"
