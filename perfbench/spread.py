#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median with
statistics.quantiles(values, n=4), next to the bound in BENCHMARK.json.

Run from the checkout root:

    python3 perfbench/spread.py --workload knn-lowdim --seeds 1-10 [--trace 0] [--out runs.jsonl]

Each run's last output line (the JSON result) is appended to --out when
given, so two builds can be compared afterwards (see README.md).
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
        res = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **res}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        flag = "" if b is None else ("  OVER BOUND" if spread > b else ("  over 1/3 bound" if spread > b / 3 else ""))
        print(f"{name:28s} median {med:14.6f} spread {spread:7.4f} bound {b}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
