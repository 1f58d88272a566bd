#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and reports, per metric, the median and the distance between
the first and third quartile as a share of the median -- the spread a
bound has to cover. Run from the repository root:

    python3 ccvbench/spread.py [--seeds 10] [--workloads sweep,serve-hot]
                               [--out ccvbench/out/spread.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", default=None)
    a = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            t = time.time()
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.time() - t:.1f}s", file=sys.stderr)
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "spread": round(spread, 4),
                          "bound": bounds.get(name), "values": vs}
            flag = "" if bounds.get(name) is None or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:11} {name:15} median {med:12.5g}  spread {spread:7.2%}"
                  f"  bound {bounds.get(name)}{flag}")
        report[workload] = rows
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
