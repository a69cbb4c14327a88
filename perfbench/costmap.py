#!/usr/bin/env python3
"""Runs the traced (--trace 1) benchmark on every workload for a few seeds
and prints the cost map as Markdown: each layer's share of run latency per
workload, the tracing overhead, and the median of every per-layer metric.
Run from the repository root:

    python3 perfbench/costmap.py --seeds 1-2 > perfbench/COSTMAP.md.new
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def traced(bench, workload, seed, secs):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(secs), "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-3000:]}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    return record, result


def med(xs):
    return statistics.median(xs) if xs else float("nan")


def cell(x, fmt):
    return "–" if x != x else format(x, fmt)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-2")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [traced(bench, w, s, bench["run_seconds"]) for s in seeds(args.seeds)] for w in names}

    env = runs[names[0]][0][0]["env"]
    print(f"Traced runs, seeds {args.seeds}, {bench['run_seconds']} s each; "
          f"{env['cpu_model']}, nproc {env['nproc']}, GOMAXPROCS {env['gomaxprocs']}, "
          f"{env['go_version']}, commit {env['commit']}, sources {env['source_sha256']}.\n")

    print("## Share of run latency\n")
    print("Median over seeds of each stage's time per run over the traced runs' mean latency.\n")
    shares = {w: {} for w in names}
    for w in names:
        for record, _ in runs[w]:
            d = record["details"]
            for k, v in {**d.get("latency_share", {}), **d.get("service_share", {})}.items():
                shares[w].setdefault(k, []).append(v)
    keys = sorted({k for w in names for k in shares[w]})
    print("| stage | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for k in keys:
        print(f"| {k} | " + " | ".join(cell(med(shares[w].get(k, [])), ".3f") for w in names) + " |")
    print("| traced mean latency (s) | " + " | ".join(
        f"{med([r['details']['traced_latency_mean_s'] for r, _ in runs[w]]):.3f}" for w in names) + " |")
    print("| obs.trace_overhead_ratio | " + " | ".join(
        f"{med([res['metrics']['obs.trace_overhead_ratio']['value'] for _, res in runs[w]]):.3f}" for w in names) + " |")

    print("\n## Per-layer metrics\n")
    print("Median over seeds. Layers outside a workload's own path are sized by the\n"
          "RIFS and service probes (see README.md).\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in bench["per_layer"]:
        vals = [med([res["metrics"][m["name"]]["value"] for _, res in runs[w]]) for w in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")


if __name__ == "__main__":
    main()
