#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for each metric, its median
and its quartile spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload union-books --seeds 1-10
    python3 perfbench/spread.py --workload translate-zipf --seeds 3,5,8 --trace 1

Run it from the repository root. Raw results go to --out when given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for s in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(s),
                                  "--seconds", str(seconds), "--trace", a.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {s}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
        res = json.loads(lines[-1])
        runs.append({"seed": s, "result": res, "stdout": p.stdout})
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {s}: {vals}", flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(runs, f, indent=1)
    names = sorted(runs[0]["result"]["metrics"])
    print(f"\n{'metric':34} {'median':>12} {'spread':>8} {'bound':>6}  values")
    for n in names:
        vs = [r["result"]["metrics"][n]["value"] for r in runs]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        b = bounds.get(n)
        flag = "" if b is None or spread <= b / 3 else "  <-- above a third of the bound"
        print(f"{n:34} {med:12.6g} {spread:8.4f} {b if b is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
