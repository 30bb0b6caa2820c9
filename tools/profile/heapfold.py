#!/usr/bin/env python3
"""Prints what a heap.c profile holds at the live-heap high-water mark.

    heapfold.py HEAP_FILE [--top N] [--check 'SITE>=SHARE' ...]

Two tables: the usable-size classes with the most live bytes, and the
allocation sites with the most estimated live bytes. The same two tables
follow for the resident-set peak, headed by the own-source frames of the
call that moved the heap there (the phase that set the peak). A site is
labelled by its first frame, innermost first, that lies in the program's
own sources: allocator and standard-library frames (operator new,
std::vector, ...) are skipped, so a site reads as the line that asked for
the memory. Each site also shows its next own-source caller.

--check 'GenerateSplit>=0.3' exits 1 unless the sites whose label contains
GenerateSplit hold at least that share of the snapshot's live bytes.
"""

import argparse
import collections
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from fold import find_mapping, load_segments, symbolize, to_vaddr  # noqa: E402

MIB = 1024.0 * 1024.0
SYSTEM_RE = re.compile(r"^(/usr/|\?\?)")
ALLOCATOR_RE = re.compile(r"^(operator new|malloc|calloc|realloc|__gnu_cxx::|"
                          r"std::|void\* std::)")


def parse(path):
    """(head, maps, breakdowns, rss_call); breakdowns maps "" (the live
    high-water mark) and "rss_" (the resident peak) to (classes, sites)."""
    head, maps, rss_call = {}, [], []
    breakdowns = {"": ([], []), "rss_": ([], [])}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            prefix = "rss_" if parts[0].startswith("rss_") else ""
            kind = parts[0][len(prefix):]
            if parts[0] in ("peak", "rss_peak", "sampling"):
                head.update(zip(parts[0::2], (float(v) for v in parts[1::2])))
            elif parts[0] == "map":
                maps.append((int(parts[1], 16), int(parts[2], 16),
                             int(parts[3], 16), " ".join(parts[4:])))
            elif parts[0] == "rss_call":
                rss_call = [int(v, 16) for v in parts[1:]]
            elif kind == "class":
                breakdowns[prefix][0].append(
                    tuple(int(v) for v in parts[1:4]))
            elif kind == "site":
                breakdowns[prefix][1].append(
                    (float(parts[1]), float(parts[2]),
                     [int(v, 16) for v in parts[3:]]))
    maps.sort()
    return head, maps, breakdowns, rss_call


def own_frames(maps, backtraces):
    """{return address: [(function, location), ...]} for the program's own
    frames: mappings other than the profiler, libc and libstdc++."""
    by_module = collections.defaultdict(set)
    for frames in backtraces:
        for pc in frames:
            mapping = find_mapping(maps, pc)
            if mapping is None:
                continue
            name = os.path.basename(mapping[3])
            if name == "heap.so" or name.startswith(
                    ("libc.", "libc-", "libstdc++", "ld-")):
                continue
            by_module[mapping].add(pc)
    resolved = {}
    for mapping, pcs in by_module.items():
        segs = load_segments(mapping[3])
        # A return address points after its call: resolve the call itself.
        vaddrs = {pc: to_vaddr(pc - 1, mapping, segs) for pc in pcs}
        names = symbolize(mapping[3], sorted(set(vaddrs.values())))
        for pc, vaddr in vaddrs.items():
            resolved[pc] = names.get(vaddr, [])
    return resolved


def label(frames, resolved, skip=0):
    """The skip-th own-source frame of a backtrace, as 'function file:line'."""
    for pc in frames:
        for function, location in resolved.get(pc, []):
            if SYSTEM_RE.match(location) or ALLOCATOR_RE.match(function):
                continue
            if skip == 0:
                function = re.sub(r"\(.*", "", function)
                return f"{function}  {os.path.basename(location)}"
            skip -= 1
    return "(no own frame)"


def print_breakdown(classes, sites, total, resolved, top):
    """Prints the size-class and site tables, shares of `total` bytes, and
    returns the sites by label: [bytes, blocks, Counter of callers]."""
    print("size classes (usable bytes from):")
    for low, blocks, size in sorted(classes, key=lambda c: -c[2])[:top]:
        print(f"  {low:>9} B  {blocks:>10} blocks  {size / MIB:8.1f} MiB"
              f"  {size / max(total, 1):6.1%}")

    by_label = collections.defaultdict(lambda: [0.0, 0.0, collections.Counter()])
    for size, blocks, frames in sites:
        entry = by_label[label(frames, resolved)]
        entry[0] += size
        entry[1] += blocks
        entry[2][label(frames, resolved, skip=1)] += size
    print("allocation sites (estimated):")
    ranked = sorted(by_label.items(), key=lambda kv: -kv[1][0])
    for name, (size, blocks, callers) in ranked[:top]:
        print(f"  {size / MIB:8.1f} MiB  {size / max(total, 1):6.1%}  "
              f"{blocks:>10.0f} blocks  {name}")
        print(f"{'':34}from {callers.most_common(1)[0][0]}")
    return by_label


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("heap_file")
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--check", action="append", default=[])
    args = parser.parse_args()

    head, maps, breakdowns, rss_call = parse(args.heap_file)
    snapshot = head.get("snapshot", 0.0)
    print(f"peak live {head.get('peak', 0) / MIB:.1f} MiB; breakdown at "
          f"{snapshot / MIB:.1f} MiB live (within "
          f"{head.get('step', 0) / MIB:.2f} MiB of the peak); "
          f"{head.get('sampled', 0):.0f} samples, one per "
          f"{head.get('sampling', 0) / 1024:.0f} KiB on average")
    if head.get("dropped", 0) > 0:
        print(f"warning: {head['dropped']:.0f} samples dropped (a sample or "
              f"site table was full); the site estimates undercount")
    print(f"resident set: {head.get('snapshot_rss', 0) / MIB:.1f} MiB at the "
          f"breakdown; peak {head.get('rss_peak', 0) / MIB:.1f} MiB, seen "
          f"with {head.get('live_at_rss_peak', 0) / MIB:.1f} MiB live")

    resolved = own_frames(
        maps, [frames for _, sites in breakdowns.values()
               for _, _, frames in sites] + [rss_call])
    by_label = print_breakdown(*breakdowns[""], snapshot, resolved, args.top)

    rss_live = head.get("live_at_rss_peak", 0.0)
    print(f"at the resident peak ({rss_live / MIB:.1f} MiB live), "
          f"reached from:")
    for depth in range(6):
        frame = label(rss_call, resolved, skip=depth)
        if frame == "(no own frame)":
            break
        print(f"  {frame}")
    print_breakdown(*breakdowns["rss_"], rss_live, resolved, args.top)

    failed = False
    for expr in args.check:
        match = re.fullmatch(r"(.+)>=([0-9.]+)", expr)
        if match is None:
            sys.exit(f"heapfold.py: bad --check {expr!r}")
        share = sum(size for name, (size, _, _) in by_label.items()
                    if match.group(1) in name) / max(snapshot, 1)
        ok = share >= float(match.group(2))
        print(f"check {expr}: {share:.3f} {'ok' if ok else 'FAILED'}")
        failed |= not ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
