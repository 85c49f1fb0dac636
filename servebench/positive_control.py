#!/usr/bin/env python3
"""Positive control for the per-layer split: slow the WAL down on purpose.

    python3 servebench/positive_control.py [--delay-us 300] [--seeds 1,2,3]
                                           [--seconds 10]

Runs durable-churn and bulk-skew-1m through run.py twice per seed: as is,
and with --fsync-delay-us, which wraps ServiceConfig::file_factory (the WAL
file seam) so every WAL fsync first spins for the delay. The split is
trusted only if it blames the layer that was slowed:

  durable-churn  wal.busy_s and wal.busy_us_per_op rise; ack_p50_us rises;
                 acked_ops_per_s falls; engine.busy_us_per_op stays within
                 ENGINE_TOLERANCE of the undelayed median.
  bulk-skew-1m   acked_ops_per_s stays within its BENCHMARK.json bound,
                 because the interval fsync policy makes few syncs.

Compares medians over the seeds. Exits 0 when every check passes.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENGINE_TOLERANCE = 0.25


def run(workload, seed, seconds, trace, delay_us):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--fsync-delay-us", str(delay_us)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def medians(workload, seeds, seconds, trace, delay_us):
    runs = [run(workload, s, seconds, trace, delay_us) for s in seeds]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delay-us", type=float, default=300.0)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    checks = []

    def check(name, base, slowed, ok):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {base:.6g} -> {slowed:.6g}")

    dc = {d: medians("durable-churn", seeds, args.seconds, 0, d) for d in (0, args.delay_us)}
    dt = {d: medians("durable-churn", seeds, args.seconds, 1, d) for d in (0, args.delay_us)}
    bk = {d: medians("bulk-skew-1m", seeds, args.seconds, 0, d) for d in (0, args.delay_us)}
    slow = args.delay_us

    for key in ("wal.busy_s", "wal.busy_us_per_op"):
        check(f"durable-churn {key} rises", dt[0][key], dt[slow][key],
              dt[slow][key] > dt[0][key])
    check("durable-churn ack_p50_us rises", dc[0]["ack_p50_us"], dc[slow]["ack_p50_us"],
          dc[slow]["ack_p50_us"] > dc[0]["ack_p50_us"])
    check("durable-churn acked_ops_per_s falls", dc[0]["acked_ops_per_s"],
          dc[slow]["acked_ops_per_s"],
          dc[slow]["acked_ops_per_s"] < dc[0]["acked_ops_per_s"])
    e0, e1 = dt[0]["engine.busy_us_per_op"], dt[slow]["engine.busy_us_per_op"]
    check(f"durable-churn engine.busy_us_per_op within {ENGINE_TOLERANCE:.0%}", e0, e1,
          abs(e1 - e0) <= ENGINE_TOLERANCE * e0)
    b0, b1 = bk[0]["acked_ops_per_s"], bk[slow]["acked_ops_per_s"]
    bound = bounds["acked_ops_per_s"]
    check(f"bulk-skew-1m acked_ops_per_s within its bound ({bound:.0%})", b0, b1,
          b1 >= (1 - bound) * b0)
    print("positive control:", "PASS" if all(checks) else "FAIL")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
