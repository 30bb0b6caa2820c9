#!/usr/bin/env bash
# Byte-identity check of the simulated schedule against a base commit.
#
# Builds spongebench from BASE (in a temporary git worktree) and from the
# working tree, runs each benchmark workload at seed 1 with both binaries,
# and compares with cmp:
#   - the --sim-out file (makespan, append mean/p99, per-layer counters
#     such as sim.events), and
#   - the report's trace.* span folds (simulated time per span kind).
# Exits 1 on any difference, naming the workload and file. Host-time
# numbers are not compared. The benchmark sources are only built and run.
#
# Usage: tools/simdiff.sh BASE
#
# The working tree's build is kept in build-simdiff/ so reruns are warm;
# BASE is built from scratch each time. Set TMPDIR to move the worktree and
# outputs.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
work="$(mktemp -d)"
cleanup() {
  git -C "$repo" worktree remove --force "$work/base" >/dev/null 2>&1 || true
  git -C "$repo" worktree prune >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

# build SOURCE_ROOT BUILD_DIR: configures and builds spongebench.
build() {
  if [ ! -f "$2/CMakeCache.txt" ]; then
    cmake -S "$1/spongebench" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "${generator[@]}" >/dev/null
  fi
  cmake --build "$2" --target spongebench -j "$jobs" >/dev/null
}

echo "simdiff: building $base_rev and the working tree" >&2
git -C "$repo" worktree add --detach "$work/base" "$base_rev" >/dev/null 2>&1
build "$work/base" "$work/base-build"
build "$repo" "$repo/build-simdiff"

status=0
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
  for kind in sim spans; do
    if cmp "$work/$workload.base.$kind" "$work/$workload.change.$kind"; then
      echo "simdiff: $workload $kind identical" >&2
    else
      echo "simdiff: $workload $kind DIFFERS" >&2
      diff "$work/$workload.base.$kind" "$work/$workload.change.$kind" \
        | head -20 >&2 || true
      status=1
    fi
  done
done
exit "$status"
