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
# --heap profiles memory instead: tools/profile/heap.c (preloaded) keeps
# the live heap by usable-size class and, sampled, by allocation site, and
# tools/profile/heapfold.py prints both at the live high-water mark, sites
# resolved with addr2line, plus the resident set seen there, then both
# again at the resident-set peak with the call that reached it. It writes
# no file; it is how a peak_rss_mb number is explained.
#
# Usage:
#   tools/profile.sh [--workload=all|skew_sponge|skew_disk|dc_replay]
#                    [--seconds=S] [--binary=PATH] [--label=NAME] [--heap]
#                    [--top=N]
#   tools/profile.sh --self-test
#
# --top=N passes through to fold.py: it also prints, on stderr, the N
# functions with the largest share of each workload's samples, each with
# its hottest source line (the function-level view; BENCH_profile.json
# stays per layer).
#
# Without --binary the script builds spongebench (RelWithDebInfo) from this
# checkout in build-profile/. --self-test compiles a busy loop placed under
# src/sim/ and checks that at least 90% of its samples fold into "sim" and
# that its loop function tops the function-level view, then runs tools/profile/heapbusy.c under heap.c and checks that at least
# 90% of the live bytes at its high-water mark belong to the site that
# holds them.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
workload=all
seconds=10
binary=""
label=change
out="$repo/BENCH_profile.json"
self_test=0
heap=0
top=0
for arg in "$@"; do
  case "$arg" in
    --workload=*) workload="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --binary=*) binary="${arg#*=}" ;;
    --label=*) label="${arg#*=}" ;;
    --self-test) self_test=1 ;;
    --heap) heap=1 ;;
    --top=*) top="${arg#*=}" ;;
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
heap_so="$work/heap.so"
cc -O2 -shared -fPIC -o "$heap_so" "$repo/tools/profile/heap.c" -lm
heapfold="$repo/tools/profile/heapfold.py"

if [ "$self_test" = 1 ]; then
  mkdir -p "$work/src/sim"
  cp "$repo/tools/profile/busy.c" "$work/src/sim/busy.c"
  cc -O1 -g -o "$work/busy" "$work/src/sim/busy.c"
  SPONGE_PROFILE_OUT="$work/busy.txt" LD_PRELOAD="$sampler" "$work/busy"
  python3 "$fold" "$work/busy.txt" --check 'sim>=0.9' --top=1 \
    2> "$work/busy.top" || { cat "$work/busy.top" >&2; exit 1; }
  cat "$work/busy.top" >&2
  if ! sed -n 2p "$work/busy.top" | grep -q '%  Spin  \['; then
    echo "profile.sh: busy.c's Spin is not the top function" >&2
    exit 1
  fi
  cc -O1 -g -o "$work/heapbusy" "$repo/tools/profile/heapbusy.c"
  SPONGE_HEAP_OUT="$work/heapbusy.txt" LD_PRELOAD="$heap_so" "$work/heapbusy"
  python3 "$heapfold" "$work/heapbusy.txt" --top 3 --check 'HoldBlocks>=0.9'
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
  if [ "$heap" = 1 ]; then
    echo "== $w (heap, ${seconds}s, seed 1)"
    SPONGE_HEAP_OUT="$work/$w.heap" LD_PRELOAD="$heap_so" \
      "$binary" --workload "$w" --seed 1 --seconds "$seconds" \
      --trace 0 > "$work/$w.out"
    python3 "$heapfold" "$work/$w.heap" --top 12
    continue
  fi
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
    --top="$top" "${checks[@]}" > "$work/$w.json"
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1]));
print("  samples", d["samples"], " ".join(f"{k}={v:.3f}" for k,v in
list(d["shares"].items())[:8]))' "$work/$w.json" >&2
done
