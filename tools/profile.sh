#!/usr/bin/env bash
# Host-time ledger: where spongebench's CPU time goes, per layer.
#
# Runs the benchmark binary with tools/profile/sampler.c preloaded (a
# CPU-time PC sampler, 1 ms of process CPU per sample) and folds the
# samples by source path into the layers common/sim/cluster/sponge/mapred/
# pig/obs/workload, plus bench, calibration (the benchmark's reference
# loop), std, libstdc++, libc.malloc, libc.string, libc.other and other
# (tools/profile/fold.py). The fold merges into
# BENCH_profile.json under workloads.<workload>.<label>, so profiling two
# builds with two labels (say "parent" and "change") gives a per-layer
# comparison.
#
# Every dc_replay profile must attribute under 1% to mapred and pig: that
# workload never runs a MapReduce task, so anything more is a folding bug.
#
# Usage:
#   tools/profile.sh [--workload=all|skew_sponge|skew_disk|dc_replay]
#                    [--seconds=S] [--binary=PATH] [--label=NAME]
#   tools/profile.sh --self-test
#
# Without --binary the script builds spongebench (RelWithDebInfo) from this
# checkout in build-profile/. --self-test compiles a busy loop placed under
# src/sim/ and checks that at least 90% of its samples fold into "sim".
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
workload=all
seconds=10
binary=""
label=change
out="$repo/BENCH_profile.json"
self_test=0
for arg in "$@"; do
  case "$arg" in
    --workload=*) workload="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --binary=*) binary="${arg#*=}" ;;
    --label=*) label="${arg#*=}" ;;
    --self-test) self_test=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

for tool in cc addr2line readelf nm python3; do
  if ! command -v "$tool" > /dev/null; then
    echo "profile.sh: $tool not found" >&2
    exit 77
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
sampler="$work/sampler.so"
cc -O2 -shared -fPIC -o "$sampler" "$repo/tools/profile/sampler.c" -lrt -ldl
fold="$repo/tools/profile/fold.py"

if [ "$self_test" = 1 ]; then
  mkdir -p "$work/src/sim"
  cp "$repo/tools/profile/busy.c" "$work/src/sim/busy.c"
  cc -O1 -g -o "$work/busy" "$work/src/sim/busy.c"
  SPONGE_PROFILE_OUT="$work/busy.txt" LD_PRELOAD="$sampler" "$work/busy"
  python3 "$fold" "$work/busy.txt" --check 'sim>=0.9'
  exit $?
fi

if [ -z "$binary" ]; then
  build="$repo/build-profile/spongebench"
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$repo/spongebench" -B "$build" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  fi
  cmake --build "$build" --target spongebench -j "$(nproc)" > /dev/null
  binary="$build/spongebench"
fi

if [ "$workload" = all ]; then
  workloads="skew_sponge skew_disk dc_replay"
else
  workloads="$workload"
fi
for w in $workloads; do
  echo "== $w ($label, ${seconds}s, seed 1)" >&2
  SPONGE_PROFILE_OUT="$work/$w.txt" LD_PRELOAD="$sampler" \
    "$binary" --workload "$w" --seed 1 --seconds "$seconds" \
    --trace 0 > "$work/$w.out"
  checks=()
  [ "$w" = dc_replay ] && checks=(--check 'mapred+pig<=0.01')
  python3 "$fold" "$work/$w.txt" --out "$out" --workload "$w" \
    --label "$label" --meta "host_cores=$(nproc)" \
    --meta build_type=RelWithDebInfo --meta seed=1 \
    --meta "seconds=$seconds" \
    --meta "sampler=timer_create(CLOCK_PROCESS_CPUTIME_ID) SIGPROF, 1 ms" \
    "${checks[@]}" > "$work/$w.json"
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1]));
print("  samples", d["samples"], " ".join(f"{k}={v:.3f}" for k,v in
list(d["shares"].items())[:8]))' "$work/$w.json" >&2
done
