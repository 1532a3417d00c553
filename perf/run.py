#!/usr/bin/env python3
"""Builds the serving benchmark and runs one workload of it.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. perf/ is a standalone CMake project over the
repository's libraries; it is built (Release) into $CARGO_TARGET_DIR/perf,
by default .bench_build/perf. The run's human-readable lines pass through,
and the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying every end-to-end metric named in BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1), each as {"value": ..., "unit": ...}.
Exit status: 0 when every answer was right, 2 when a request failed or an
answer was wrong, 1 when the benchmark could not be built or run (then no
JSON line is printed).

    python3 perf/run.py --smoke [--binary PATH]

runs every workload at toy scale, untraced and traced, and checks that no
request failed and that every metric BENCHMARK.json names is printed for
every workload (the perf_smoke CTest test).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
RUN_TIMEOUT_S = 170


def metric_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return [m["name"] for m in bench[section]]


def build():
    """Configures and builds islabel_perf; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perf")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", PERF_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "islabel_perf",
             "-j", str(os.cpu_count() or 1)],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit(1)
    return os.path.join(build_dir, "islabel_perf")


def run_binary(binary, args):
    """Runs islabel_perf, echoing its stdout; returns (exit code, lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("islabel_perf timed out", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def run_one(args):
    binary = args.binary or build()
    out_dir = os.path.dirname(os.path.abspath(binary))
    trace = "1" if args.trace == "1" else "0"
    record_path = os.path.join(
        out_dir, "records",
        f"{args.workload}-seed{args.seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    code, _ = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", trace,
        "--out", record_path,
        "--work-dir", os.path.join(out_dir, "perf_work")])
    if code not in (0, 2) or not os.path.exists(record_path):
        print(f"islabel_perf exited {code} without a record", file=sys.stderr)
        sys.exit(1)
    with open(record_path, encoding="utf-8") as f:
        run = json.load(f)["workloads"][args.workload]
    names = metric_names("per_layer" if trace == "1" else "end_to_end")
    missing = [n for n in names if n not in run["metrics"]]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: run["metrics"][n] for n in names},
    }))
    return code


def smoke(args):
    binary = args.binary or build()
    out_dir = os.path.dirname(os.path.abspath(binary))
    start = time.monotonic()
    problems = []
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = run_binary(binary, [
            "--smoke", "--trace", trace,
            "--out", os.path.join(out_dir, f"smoke-trace{trace}.json"),
            "--work-dir", os.path.join(out_dir, "perf_work")])
        if code != 0:
            problems.append(f"--trace {trace} exited {code}")
        printed = {}
        for line in lines:
            fields = line.split()
            if len(fields) == 4:
                printed.setdefault(fields[0], {})[fields[1]] = float(fields[2])
        if not printed:
            problems.append(f"--trace {trace} printed no metrics")
        for workload, metrics in printed.items():
            missing = [n for n in metric_names(section) if n not in metrics]
            if missing:
                problems.append(f"{workload} --trace {trace} lacks {missing}")
            if metrics.get("fail_ratio", 1.0) != 0.0:
                problems.append(f"{workload} --trace {trace} fail_ratio "
                                f"{metrics.get('fail_ratio')}")
    elapsed = time.monotonic() - start
    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    print(f"smoke: {'ok' if not problems else 'FAILED'} in {elapsed:.1f} s")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary",
                        help="use this islabel_perf, skip the build")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
