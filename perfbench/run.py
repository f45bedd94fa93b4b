#!/usr/bin/env python3
"""Builds and runs the cjpack end-to-end benchmark.

    python3 perfbench/run.py --workload bulk-serial --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench; later runs only check the build is current.
Inputs, archives and the server socket live in a scratch directory
under .bench_build that is removed afterwards.

--trace 0 prints the end-to-end metrics. --trace 1 runs the end-to-end
binary and the traced binary for half the seconds each and prints the
per-layer metrics plus the tracing overhead between the two. The last
line of standard output is the result document; README.md describes it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bulk-serial", "bulk-sharded", "serve-fetch")
END_TO_END = ("pack_mb_s", "unpack_mb_s", "size_pct_sjar", "fetch_p50_ms",
              "fetch_p99_ms", "fetch_rps", "peak_rss_mb", "setup_s")
# Every run after the build must finish within this many seconds.
RUN_DEADLINE_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date. False on error."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs,
           "--target", "perfbench", "perfbench_traced"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_binary(binary, args, workdir, deadline):
    """Runs one binary; returns its result document or None."""
    os.makedirs(workdir)
    try:
        proc = subprocess.run([os.path.join(BUILD, binary)] + args,
                              cwd=workdir, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{binary} timed out")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"{binary} exited with {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{binary} printed no result")
        return None


def overhead_pct(plain, traced, name, higher_is_better):
    """Percent by which the traced run is worse than the plain one."""
    a = plain["metrics"][name]["value"]
    b = traced["metrics"][name]["value"]
    ratio = a / b if higher_is_better else b / a
    return {"value": (ratio - 1) * 100, "unit": "%"}


def declared_names(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not build():
        log("build failed")
        return 1

    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = os.path.join(ROOT, ".bench_build", "work")
    tag = f"{opts.workload}-{opts.seed}-{os.getpid()}"
    args = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if not opts.trace:
        result = run_binary("perfbench",
                            args + ["--seconds", str(opts.seconds)],
                            os.path.join(scratch, tag), deadline)
        if result is None:
            return 1
    else:
        half = str(opts.seconds / 2)
        plain = run_binary("perfbench", args + ["--seconds", half],
                           os.path.join(scratch, tag + "-plain"), deadline)
        spans = os.path.join(ROOT, ".bench_build", "spans", tag + ".json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        traced = run_binary("perfbench_traced",
                            args + ["--seconds", half, "--spans", spans],
                            os.path.join(scratch, tag + "-traced"),
                            deadline)
        if plain is None or traced is None:
            return 1
        print("run.py: traced end-to-end: " + ", ".join(
            f"{k}={traced['metrics'][k]['value']:.4g}" for k in END_TO_END))
        print(f"run.py: spans written to {os.path.relpath(spans, ROOT)}")
        metrics = {k: v for k, v in traced["metrics"].items()
                   if k not in END_TO_END}
        metrics["trace.pack_overhead_pct"] = overhead_pct(
            plain, traced, "pack_mb_s", True)
        metrics["trace.unpack_overhead_pct"] = overhead_pct(
            plain, traced, "unpack_mb_s", True)
        metrics["trace.fetch_overhead_pct"] = overhead_pct(
            plain, traced, "fetch_p50_ms", False)
        result = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics,
        }

    declared = declared_names(opts.trace)
    if declared is not None and declared != set(result["metrics"]):
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(declared ^ set(result['metrics']))}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
