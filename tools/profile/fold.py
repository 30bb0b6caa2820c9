#!/usr/bin/env python3
"""Folds a sampler.c sample file into per-layer shares of host CPU time.

    fold.py SAMPLES [--out BENCH.json --workload W --label L
                     --meta key=value ...] [--check 'EXPR']

Each sampled PC is resolved with `addr2line -i -f -C`. A PC in the
simulator's own code lands in the layer of the innermost inlined frame
whose file lies under src/<layer>/ (the path survives coroutine
.resume/.actor naming, symbols do not); spongebench/ frames land in
"bench". A PC in a standard-library template instantiation with no src/
frame lands in the layer named by a spongefiles::<layer>:: template
argument, else in "std". The benchmark's calibration loop (CalibrationCpuS
and the std::pmr::map it builds, which nothing else uses) lands in
"calibration", not "bench"; its calls into libstdc++.so stay in
"libstdc++", since a sampled PC carries no caller. libc is split into "libc.malloc" (the malloc
implementation's address range), "libc.string" (mem*/str* functions,
including their IFUNC targets, whose addresses the sampler records) and
"libc.other".

Prints the fold as JSON. With --out, merges it into that file under
workloads.W.L (other entries are kept). --check 'mapred+pig<=0.01' or
'sim>=0.9' exits 1 unless the summed shares satisfy the bound.
"""

import argparse
import bisect
import collections
import json
import os
import re
import subprocess
import sys

LAYER_RE = re.compile(r"/src/([a-z_]+)/")
NAMESPACE_RE = re.compile(r"spongefiles::([a-z_]+)::")
MALLOC_NAMES = re.compile(
    r"^(__libc_)?(malloc|free|cfree|realloc|calloc|memalign|valloc|pvalloc|"
    r"posix_memalign|aligned_alloc|mallopt|mallinfo2?|malloc_\w+|"
    r"__default_morecore)$")
STRING_NAMES = re.compile(r"^(__)?(mem|str|wmem|wcs|stp|bcopy|bzero)\w*$")
CALIBRATION_RE = re.compile(r"\bCalibrationCpuS\(|std::pmr::")


def parse_samples(path):
    maps, fns, pcs = [], [], collections.Counter()
    samples = dropped = 0
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "samples":
                samples, dropped = int(parts[1]), int(parts[3])
            elif parts[0] == "map":
                maps.append((int(parts[1], 16), int(parts[2], 16),
                             int(parts[3], 16), " ".join(parts[4:])))
            elif parts[0] == "fn":
                fns.append((int(parts[1], 16), parts[2]))
            elif parts[0] == "pc":
                pcs[int(parts[1], 16)] += int(parts[2])
    maps.sort()
    return samples, dropped, maps, fns, pcs


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) triples of an ELF file."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                         text=True, check=True).stdout
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16),
                         int(parts[4], 16)))
    return segs


def to_vaddr(pc, mapping, segs):
    start, _, offset, _ = mapping
    file_offset = pc - start + offset
    for seg_offset, seg_vaddr, filesz in segs:
        if seg_offset <= file_offset < seg_offset + filesz:
            return file_offset - seg_offset + seg_vaddr
    return file_offset


def find_mapping(maps, pc):
    i = bisect.bisect_right([m[0] for m in maps], pc) - 1
    if i >= 0 and maps[i][0] <= pc < maps[i][1]:
        return maps[i]
    return None


def classify_code(frames):
    """Layer of one PC from its addr2line frames (innermost first)."""
    if any(CALIBRATION_RE.search(function) for function, _ in frames):
        return "calibration"
    for _, location in frames:
        if "/spongebench/" in location:
            return "bench"
        match = LAYER_RE.search(location)
        if match:
            return match.group(1)
    for function, _ in frames:
        match = NAMESPACE_RE.search(function)
        if match:
            return match.group(1)
    return "std"


def symbolize(path, vaddrs):
    """{vaddr: [(function, file:line), ...]} via one addr2line run."""
    if not vaddrs:
        return {}
    args = ["addr2line", "-a", "-i", "-f", "-C", "-e", path]
    out = subprocess.run(args, input="\n".join(hex(v) for v in vaddrs),
                         capture_output=True, text=True, check=True).stdout
    result, current, lines = {}, None, out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            result[current] = []
            i += 1
            continue
        location = lines[i + 1] if i + 1 < len(lines) else "??"
        result[current].append((lines[i], location))
        i += 2
    return result


def libc_classifier(path, fns, mapping, segs):
    out = subprocess.run(["nm", "-D", "-n", "-S", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 4:
            symbols.append((int(parts[0], 16), int(parts[1], 16),
                            parts[3].split("@")[0]))
    # The malloc implementation's internals (_int_malloc, _int_free, ...)
    # are not exported. Its text is the gap after the last other exported
    # symbol before the first malloc-family symbol, through the end of the
    # contiguous malloc-family symbols.
    malloc_lo = malloc_hi = None
    first = next((i for i, sym in enumerate(symbols)
                  if MALLOC_NAMES.match(sym[2])), None)
    if first is not None:
        before = [a + n for a, n, name in symbols[:first]
                  if a < symbols[first][0]]
        malloc_lo = max(before) if before else symbols[first][0]
        malloc_hi = symbols[first][0] + symbols[first][1]
        for addr, size, name in symbols[first:]:
            if addr > malloc_hi and not MALLOC_NAMES.match(name):
                break
            malloc_hi = max(malloc_hi, addr + size)
    starts = [(addr, name) for addr, _, name in symbols]
    # IFUNC targets (e.g. __memmove_avx_unaligned_erms) are not exported;
    # the sampler recorded where they were resolved to.
    for addr, name in fns:
        if mapping[0] <= addr < mapping[1]:
            starts.append((to_vaddr(addr, mapping, segs), name))
    starts.sort()
    keys = [s[0] for s in starts]

    def classify(vaddr):
        if malloc_lo is not None and malloc_lo <= vaddr < malloc_hi:
            return "libc.malloc"
        i = bisect.bisect_right(keys, vaddr) - 1
        if i >= 0 and STRING_NAMES.match(starts[i][1]):
            return "libc.string"
        return "libc.other"

    return classify


def fold(path):
    samples, dropped, maps, fns, pcs = parse_samples(path)
    counts = collections.Counter()
    by_object = collections.defaultdict(list)
    for pc, n in pcs.items():
        mapping = find_mapping(maps, pc)
        if mapping is None:
            counts["other"] += n
        else:
            by_object[mapping[3]].append((pc, n, mapping))
    for obj, entries in sorted(by_object.items()):
        name = os.path.basename(obj)
        segs = load_segments(obj)
        if name.startswith("libc.so"):
            mapping = entries[0][2]
            classify = libc_classifier(obj, fns, mapping, segs)
            for pc, n, m in entries:
                counts[classify(to_vaddr(pc, m, segs))] += n
            continue
        if name.startswith("libstdc++"):
            counts["libstdc++"] += sum(n for _, n, _ in entries)
            continue
        if ".so" in name:  # the loader, libm, libgcc_s, the sampler
            counts["other"] += sum(n for _, n, _ in entries)
            continue
        vaddrs = {pc: to_vaddr(pc, m, segs) for pc, _, m in entries}
        frames = symbolize(obj, sorted(set(vaddrs.values())))
        for pc, n, _ in entries:
            counts[classify_code(frames.get(vaddrs[pc], []))] += n
    total = sum(counts.values()) or 1
    return {
        "samples": samples,
        "dropped": dropped,
        "shares": {k: round(v / total, 4)
                   for k, v in sorted(counts.items(), key=lambda kv: -kv[1])},
    }


def check(result, expr):
    match = re.fullmatch(r"([a-z_.+]+)\s*(<=|>=)\s*([0-9.]+)", expr)
    if not match:
        sys.exit(f"fold.py: bad --check expression: {expr}")
    layers, op, bound = match.group(1).split("+"), match.group(2), \
        float(match.group(3))
    share = sum(result["shares"].get(layer, 0.0) for layer in layers)
    ok = share <= bound if op == "<=" else share >= bound
    print(f"check {expr}: share {share:.4f} -> {'ok' if ok else 'FAILED'}",
          file=sys.stderr)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("samples")
    parser.add_argument("--out")
    parser.add_argument("--workload")
    parser.add_argument("--label")
    parser.add_argument("--meta", action="append", default=[])
    parser.add_argument("--check", action="append", default=[])
    args = parser.parse_args()
    result = fold(args.samples)
    print(json.dumps(result, indent=2))
    if args.out:
        doc = {}
        if os.path.isfile(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        for item in args.meta:
            key, _, value = item.partition("=")
            doc[key] = int(value) if value.isdigit() else value
        entry = doc.setdefault("workloads", {}).setdefault(args.workload, {})
        entry[args.label] = result
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    if not all([check(result, expr) for expr in args.check]):
        sys.exit(1)


if __name__ == "__main__":
    main()
