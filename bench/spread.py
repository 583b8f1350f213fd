"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads staircase,ensemble --seeds 1-10 \\
        --seconds 45 [--trace 1] [--out spread.json]

Runs ``run.py`` once per workload and seed, from the current directory,
interleaving the workloads so that a slow spell of the machine touches all
of them.  For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the distance between
the quartiles as a share of the median, to compare with the metric's bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec: str) -> list:
    if "-" in spec:
        first, last = (int(x) for x in spec.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in spec.split(",")]


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    workloads = args.workloads.split(",")
    results = {w: {} for w in workloads}
    attempts = {w: [0, 0] for w in workloads}
    for seed in seed_list(args.seeds):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = next(json.loads(line[len("environment: "):]) for line in lines
                               if line.startswith("environment: "))
            attempts[workload][0] += result["attempted"]
            attempts[workload][1] += result["failed"]
            for name, metric in result["metrics"].items():
                results[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seed_list(args.seeds),
              "environment": environment, "workloads": {}}
    for workload in workloads:
        entry = {"attempted": attempts[workload][0], "failed": attempts[workload][1],
                 "metrics": {n: summary(v) for n, v in results[workload].items()}}
        report["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"{workload:14s} {name:30s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
