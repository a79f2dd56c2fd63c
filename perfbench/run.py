#!/usr/bin/env python3
"""Fixed-work solve-and-serve benchmark of the hddm solver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload olg-d4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --selftest                # the harness's own tests

The first call configures and builds the hddm libraries plus the harness in
Release mode under $CARGO_TARGET_DIR (default .bench_build) in the checkout;
later calls rebuild incrementally. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. A failed correctness check prints "correct": false and
exits 1; a failed build exits 3 without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(targets):
    """Configures (once) and builds; returns the build directory or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no hddm sources next to perfbench/ -- nothing to build")
        return None
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()), check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return None
        if proc.returncode != 0:
            log(f"perfbench: build step exited {proc.returncode}: {' '.join(cmd)}")
            return None
    return out


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def child_env():
    env = dict(os.environ)
    # Measure the library's defaults, not a Jacobian mode left in the shell.
    env.pop("HDDM_JACOBIAN_MODE", None)
    return env


def run_one(exe, workload, seed, seconds, trace, workdir):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env(), check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 2, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"perfbench: {workload} printed no result (exit {proc.returncode})")
        return max(proc.returncode, 2), None
    names = expected_metrics(trace)
    if names is not None and list(result["metrics"]) != names:
        log(f"perfbench: {workload} metrics {list(result['metrics'])} != BENCHMARK.json {names}")
        result["correct"] = False
    return (0 if result["correct"] and proc.returncode == 0 else 1), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build(["perfbench_selftest"] if args.selftest else ["perfbench"])
    if out is None:
        return 3
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")], check=False).returncode

    exe = out / "perfbench"
    listed = subprocess.run([str(exe), "--list"], stdout=subprocess.PIPE, text=True, check=True)
    names = listed.stdout.split()
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"perfbench: unknown workload {args.workload!r}; choose from {names} or 'all'")
        return 2

    workdir = out.parent / f"perfbench-work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        code, results = 0, {}
        for w in workloads:
            rc, result = run_one(exe, w, args.seed, args.seconds, args.trace == 1, workdir)
            code = max(code, rc)
            if result is None:
                return code
            results[w] = result
            if len(workloads) > 1:
                print(f"# {w}: {json.dumps(result)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
