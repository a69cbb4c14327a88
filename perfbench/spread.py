#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's median and
quartile spread (IQR / median), the steadiness check BENCHMARK.json's bounds
are judged by. Run from the repository root:

    python3 perfbench/spread.py --workload serve-light --seeds 1-10 --seconds 30
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(secs), "--trace", args.trace]
        t0 = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        took = time.monotonic() - t0
        lines = out.stdout.strip().splitlines() or ["{}"]
        last = lines[-1]
        res = json.loads(last)
        env = json.loads(lines[-2]).get("env", {}) if len(lines) > 1 else {}
        if out.returncode != 0 or not res.get("correct"):
            sys.exit(f"seed {seed}: exit {out.returncode}, result {last}\n{out.stderr[-3000:]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
              + f" steal={env.get('cpu_steal_share', float('nan')):.3f} wall={took:.1f}s", flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else ("  WITHIN" if spread <= bound else "  OVER"))
        print(f"{name:34s} median {med:.6g}  spread {spread:.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
