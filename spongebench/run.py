#!/usr/bin/env python3
"""Builds and runs the SpongeFiles benchmark (spongebench/spongebench.cc).

    python3 spongebench/run.py --workload skew_sponge|skew_disk|dc_replay \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator's libraries and the benchmark binary under $CARGO_TARGET_DIR
(default .bench_build); later runs reuse the build. The binary's report is
passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}, checked here against the
metric names BENCHMARK.json declares. Each result is also saved, stamped with
its workload shape, under <build dir>/results/.

    python3 spongebench/run.py --compare A.json B.json

prints two saved results side by side and refuses (exit 2) when their shapes
differ: numbers from different cluster sizes, seeds or builds do not compare.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("skew_sponge", "skew_disk", "dc_replay")
# Figure 5, Spam Quantiles at 4 GB: SpongeFiles cut the disk-spilling
# runtime by 85% under contention.
PAPER_REDUCTION = 0.85
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "spongebench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to spongebench/")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_build_step(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", out_dir, "--target", "spongebench",
                        "-j", jobs])
    binary = os.path.join(out_dir, "spongebench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no binary at {binary}")
    return binary


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout carries only the benchmark report.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace == 1 else "end_to_end"
    return [m["name"] for m in spec[key]]


def results_path(out_dir, workload, seed, trace):
    return os.path.join(out_dir, "results",
                        f"{workload}-seed{seed}-trace{trace}.json")


def print_reduction(out_dir, args, result):
    """Informational: skew_disk vs skew_sponge makespan, next to the paper."""
    other = "skew_disk" if args.workload == "skew_sponge" else "skew_sponge"
    try:
        with open(results_path(out_dir, other, args.seed, 0)) as f:
            runs = {args.workload: result, other: json.load(f)["result"]}
    except (OSError, ValueError, KeyError):
        return  # the other skew workload has not run with this seed
    disk = runs["skew_disk"]["metrics"]["sim_makespan_s"]["value"]
    sponge = runs["skew_sponge"]["metrics"]["sim_makespan_s"]["value"]
    if disk > 0:
        print(f"skew_sponge vs skew_disk sim_makespan_s: {sponge:.1f} s vs "
              f"{disk:.1f} s, a {100 * (1 - sponge / disk):.0f}% reduction "
              f"(paper, Fig. 5 Spam Quantiles at 4 GB: "
              f"{100 * PAPER_REDUCTION:.0f}%)")


def run(args):
    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.shape:
        cmd += ["--shape", args.shape]
    if args.sim_out:
        cmd += ["--sim-out", args.sim_out]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
        shape = json.loads(lines[0].split(":", 1)[1])
    except (ValueError, IndexError):
        fail("benchmark printed no result object")
    declared = declared_metrics(args.trace)
    if declared is not None and list(result["metrics"]) != declared:
        fail("reported metrics differ from BENCHMARK.json")

    print("\n".join(lines[:-1]))
    if not args.shape or args.shape == "full":
        path = results_path(out_dir, args.workload, args.seed, args.trace)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"shape": shape, "result": result}, f, indent=1)
        if args.trace == 0 and args.workload != "dc_replay":
            print_reduction(out_dir, args, result)
    print(lines[-1])


def load_result(path):
    try:
        with open(path) as f:
            saved = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(saved, dict) or "shape" not in saved or \
            "metrics" not in saved.get("result", {}):
        fail(f"{path} is not a saved result")
    return saved


def compare(a_path, b_path):
    a = load_result(a_path)
    b = load_result(b_path)
    if a["shape"] != b["shape"]:
        diff = sorted(k for k in set(a["shape"]) | set(b["shape"])
                      if a["shape"].get(k) != b["shape"].get(k))
        print(f"refusing to compare: shapes differ in {', '.join(diff)}",
              file=sys.stderr)
        return 2
    print(f"{'metric':36s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        va, vb = m["value"], other["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:36s} {va:14.6g} {vb:14.6g} {ratio} {m['unit']}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--shape", choices=("full", "tiny"))
    parser.add_argument("--sim-out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run(args)


if __name__ == "__main__":
    main()
