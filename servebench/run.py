#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 servebench/run.py --workload W --seed N --seconds S --trace 0|1
                              [--fsync-delay-us U] [--window W]

Run from the root of a checkout. The build goes to .bench_build/servebench,
service directories to .bench_run/ (removed afterwards). The last line of
stdout is the result JSON: {correct, attempted, failed, metrics}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. README.md in this directory describes the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["durable-churn", "bulk-skew-1m", "checkpoint-failover"]
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds: float, trace: int) -> float:
    """Set-up, checks and recovery, plus the phases that grow with the window:
    one ingest phase untraced; an untraced and a traced phase and the layer
    replays (the WAL replay repeats every fsync) traced."""
    return 110 + (6 if trace else 3) * seconds


def build() -> Path:
    build_dir = ROOT / ".bench_build" / "servebench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        jobs = str(os.cpu_count() or 1)
        for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
    return build_dir / "servebench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fsync-delay-us", type=float, default=0.0,
                    help="positive control: spin this long before every WAL fsync")
    ap.add_argument("--window", type=int, default=0,
                    help="ops in flight per producer (0: the workload's own); "
                         "window_sweep.py uses it")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1

    run_root = ROOT / ".bench_run"
    run_dir = run_root / f"{args.workload}-{os.getpid()}"
    run_root.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir), "--fsync-delay-us", str(args.fsync_delay_us),
           "--window", str(args.window)]
    if args.trace:
        cmd += ["--spans-out", str(run_root / f"spans-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout_s(args.seconds, args.trace))
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"servebench: run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except json.JSONDecodeError:
        ok = False
    if not ok:
        print("servebench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
