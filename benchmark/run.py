#!/usr/bin/env python3
"""The repository benchmark: builds vsparse_bench from the checkout's
sources, runs one workload and prints its metrics.

    python3 benchmark/run.py --workload octet_kernels --seed 1 \\
        --seconds 12 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The exit code is 0 only when every output was correct.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402

RUN_LIMIT_S = 170  # the harness's share of a run's 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds vsparse_bench; returns its path.  A lock
    keeps concurrent runs from building into one directory at once."""
    os.makedirs(build_dir, exist_ok=True)
    cmake_dir = os.path.join(build_dir, "cmake")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "vsparse_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload}; one of {names}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    spans_path = os.path.join(build_dir, f"spans-{os.getpid()}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", spans_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
        return 1
    try:
        raw = json.loads(proc.stdout)
    except json.JSONDecodeError:
        log(f"vsparse_bench exited {proc.returncode} without a record")
        return 1
    log(f"{args.workload}: {time.monotonic() - start:.1f} s in vsparse_bench")

    failed = raw["failed"]
    for err in raw.get("errors", []):
        log(f"error: {err}")
    if "ledgers" in raw:
        failed += analysis.ledger_failures(raw)

    if args.trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        os.remove(spans_path)
        values = analysis.per_layer(raw, spans)
        wanted = spec["per_layer"]
    else:
        values = analysis.end_to_end(raw)
        wanted = spec["end_to_end"]
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in values.items()}
    analysis.check_metrics(metrics, wanted)

    correct = failed == 0 and proc.returncode == 0
    print(f"# digest {args.workload} seed={args.seed}: {raw['digest']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
