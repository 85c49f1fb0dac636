#!/usr/bin/env python3
"""Sweep the closed-loop window (ops in flight per producer) on one workload.

    python3 servebench/window_sweep.py [--workload durable-churn]
                                       [--windows 128,256,512,1024,2048]
                                       [--seeds 1,2] [--seconds 5]
                                       [--fsync-delay-us 200]

Runs run.py --trace 0 --window W for every window and seed, once as is and
once with --fsync-delay-us (every WAL fsync first spins that long, standing
for a slower disk). Prints one row per window with the medians over the
seeds of acked_ops_per_s, ack_p50_us and the ops per drain (ops per WAL
fsync under every-batch fsync), and the share of acked_ops_per_s the delay
costs: how much a drift in the disk's fsync time moves the figure. README.md
("Why these windows") records the sweep behind each workload's window.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, window, delay_us):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--window", str(window), "--fsync-delay-us", str(delay_us)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} window {window} seed {seed}: check failed")
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    return m["acked_ops_per_s"], m["ack_p50_us"], detail["ops_per_drain"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="durable-churn")
    ap.add_argument("--windows", default="128,256,512,1024,2048")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--fsync-delay-us", type=float, default=200.0)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"{'window':>6} {'ops/s':>9} {'ack_p50_us':>10} {'ops/drain':>9} "
          f"{'delayed ops/s':>13} {'cost':>6}")
    for window in (int(w) for w in args.windows.split(",")):
        rows = [run(args.workload, s, args.seconds, window, 0) for s in seeds]
        ops, p50, drain = (statistics.median(col) for col in zip(*rows))
        slow = statistics.median(
            run(args.workload, s, args.seconds, window, args.fsync_delay_us)[0]
            for s in seeds)
        print(f"{window:>6} {ops:>9.0f} {p50:>10.1f} {drain:>9.1f} "
              f"{slow:>13.0f} {1 - slow / ops:>6.1%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
