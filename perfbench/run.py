#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload point-large --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (its own CMake package, compiled against
the library sources in src/) into .bench_build/perfbench, then runs one
workload. The benchmark binary prints a human-readable report and, as the
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and the sampled spans are written to
.bench_build/traces/<workload>.csv. The exit code is the binary's: nonzero
when a correctness check failed, the build failed, or the run timed out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("point-large", "point-hot", "txn-scan")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(targets=("perfbench",)):
    """Configure (once) and build; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target", *targets],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    """(name -> unit) the run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Problems with the shape of the binary's result line, if any."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or wrong unit %s" % (
                            sorted(set(want.items()) - set(got.items())),
                            sorted(set(got.items()) - set(want.items()))))
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny shrinks every workload for smoke tests")
    args = ap.parse_args(argv)

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--git-sha", git_sha()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        print("perfbench: no result line (exit code %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            print("perfbench: bad result: %s" % p, file=sys.stderr)
        return proc.returncode or 5
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
