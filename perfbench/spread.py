#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each end-to-end
metric's median and spread: the distance between the first and third
quartiles as a share of the median, computed as the acceptance check
computes it (statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 perfbench/spread.py --workload repair-paper --seeds 1-10

Each run is one process, started only after the previous one exited, so
runs never share the CPUs. Prints one line per metric, then the digests
the runs printed (they must all be equal).
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values, digests = {}, set()
    for seed in args.seeds:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run not correct:\n{out}")
        for line in lines:
            m = re.search(r": digest (\w+) over", line)
            if m:
                digests.add(m.group(1))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)

    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:16s} median {med:12.4f}  spread {spread:7.2%}  bound {bound}{flag}")
    print("digests:", " ".join(sorted(digests)))


if __name__ == "__main__":
    main()
