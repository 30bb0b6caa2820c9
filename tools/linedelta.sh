#!/usr/bin/env bash
# Net line delta of the committed tree against a base commit, per area, for
# the per-change report ROADMAP.md asks for.
#
# Usage: tools/linedelta.sh BASE
#
# Areas: src/, tests/, bench/, tools/, docs (the *.md files, and the
# verify skill notes), and everything else. The per-change notes and the
# recorded results at the top level are left out. Binary files count zero
# lines.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"

git -C "$repo" diff --numstat "$1" HEAD | awk -F'\t' '
  function area(path) {
    if (path ~ /^((ISSUE|REVIEW|CHANGES)\.md|BENCH_[^\/]*\.json)$/) return ""
    if (path ~ /^src\//) return "src"
    if (path ~ /^tests\//) return "tests"
    if (path ~ /^bench\//) return "bench"
    if (path ~ /^tools\//) return "tools"
    if (path ~ /\.md$/) return "docs"
    return "other"
  }
  {
    path = $3
    # A rename prints as "dir/{old => new}" or "old => new"; count it
    # under its new path.
    if (path ~ /=>/) {
      sub(/\{[^}]* => /, "", path)
      sub(/\}/, "", path)
      sub(/^.* => /, "", path)
    }
    a = area(path)
    if (a == "") next
    added = ($1 == "-") ? 0 : $1
    removed = ($2 == "-") ? 0 : $2
    add[a] += added
    del[a] += removed
    add["total"] += added
    del["total"] += removed
  }
  END {
    printf "%-6s %8s %8s %8s\n", "area", "added", "removed", "net"
    n = split("src tests bench tools docs other total", order, " ")
    for (i = 1; i <= n; ++i) {
      k = order[i]
      printf "%-6s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k]
    }
  }'
