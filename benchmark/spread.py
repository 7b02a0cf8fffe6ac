#!/usr/bin/env python3
"""Run every workload ten times, each with another seed, and print for each
end-to-end metric the median and the quartile spread (Q3 - Q1 as a share of
the median, `statistics.quantiles(values, n=4)`), next to its bound in
BENCHMARK.json. This is the check the driver applies to the benchmark itself.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W] [--out FILE]
"""

import argparse
import json
import os
import statistics
import sys
import time

import run as bench

ROOT = bench.ROOT


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="write every run's result as JSON lines")
    a = ap.parse_args()
    binary = bench.build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = {}
    log = open(a.out, "w") if a.out else None
    for w in a.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        t0 = time.time()
        for seed in range(a.first_seed, a.first_seed + a.runs):
            code, out = bench.run_workload(binary, w, seed, spec["run_seconds"], False, 100, True)
            if code != 0:
                sys.exit(f"{w} seed {seed}: exit code {code}")
            res = bench.result_of(out)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            if log:
                log.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
                log.flush()
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"{w}  ({a.runs} runs, {time.time() - t0:.0f} s)")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if len(set(vs)) == 1:
                flag = "  CONSTANT"
            elif name != "setup_s" and spread > bounds[name] / 3:
                flag = "  > bound/3"
            worst[name] = max(worst.get(name, 0.0), spread if name != "setup_s" else 0.0)
            print(f"  {name:<18} median {med:>16.6f}  spread {spread:8.4%}  bound {bounds[name]:6.2%}{flag}")
    print("worst spread per metric (setup_s exempt)")
    for name, s in worst.items():
        print(f"  {name:<18} {s:8.4%}  bound {bounds[name]:6.2%}")


if __name__ == "__main__":
    main()
