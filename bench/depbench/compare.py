#!/usr/bin/env python3
"""Compares two sets of depbench runs, workload by workload.

Usage: compare.py BENCHMARK.json A.jsonl B.jsonl

A and B are files of result lines as `run.sh --out FILE` appends them
(one JSON object per run, tagged with its workload and seed). For every
workload and end-to-end metric this prints each side's median and
quartiles over its runs, and a verdict against the metric's bound from
BENCHMARK.json:

  ok          B's median is not worse than A's by more than the bound
  regressed   it is worse by more than the bound
  unresolved  either side's spread (quartile distance / median) exceeds
              the bound, unless every run of B beats every run of A

Each workload gets its own rows; there is no combined score. Per-layer
metrics (traced runs) have no bound and are listed with their medians.
Exits 1 when any verdict is "regressed", else 0.
"""

import json
import statistics
import sys


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                run = json.loads(line)
                runs.setdefault((run["workload"], run.get("trace", 0)), []).append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, a, b):
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    lower = metric["better"] == "lower"
    worse = (b2 - a2) / a2 if lower else (a2 - b2) / a2
    spread = max((a3 - a1) / a2, (b3 - b1) / b2 if b2 else 0.0)
    b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if spread > metric["bound"] and not b_always_better:
        return "unresolved", worse, spread
    if worse > metric["bound"]:
        return "regressed", worse, spread
    return "ok", worse, spread


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        bench = json.load(f)
    a_runs, b_runs = load_runs(argv[2]), load_runs(argv[3])
    regressed = False
    fmt = "{:<13} {:<24} {:>30} {:>30}  {:<10} {:>7} {:>7}"
    print(fmt.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
                     "verdict", "worse", "spread"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            a = a_runs.get((workload, trace), [])
            b = b_runs.get((workload, trace), [])
            if not a or not b:
                continue
            for metric in metrics:
                name = metric["name"]
                av = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
                bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
                if not av or not bv:
                    continue
                qa, qb = quartiles(av), quartiles(bv)
                side = "{:.4g} [{:.4g}, {:.4g}] n={}"
                cells = [side.format(qa[1], qa[0], qa[2], len(av)),
                         side.format(qb[1], qb[0], qb[2], len(bv))]
                if "bound" in metric and qa[1] != 0:
                    v, worse, spread = verdict(metric, av, bv)
                    regressed = regressed or v == "regressed"
                    print(fmt.format(workload, name, *cells, v, f"{worse:+.1%}", f"{spread:.1%}"))
                else:
                    print(fmt.format(workload, name, *cells, "-", "", ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
