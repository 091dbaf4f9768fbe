#!/usr/bin/env python3
"""Compares two sets of bench/e2e runs, metric by metric and workload by workload.

    python3 bench/e2e/compare.py A.jsonl B.jsonl

A and B are files written by `run.py --record` (one JSON line per run); A is
the parent, B the change. For every workload and every end_to_end metric of
BENCHMARK.json it prints both medians, both quartile pairs, each side's spread
(interquartile distance over median) and a verdict, using the metric's bound:

  worse       B's median is worse than A's by more than the bound
  better      B wins at least 9 of 10 pairs (paired by seed) and the medians
              differ by more than A's interquartile distance
  unresolved  either side's spread exceeds the bound, unless every run of B
              reads better than every run of A
  unchanged   otherwise

Runs at the same seed must also agree exactly on the simulation's checksum,
round total and failure count; any difference is reported. Exits 1 if any
metric is worse or any seed disagrees.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a, b, bound, lower_is_better, pairs):
    def better(x, y):  # x reads better than y
        return x < y if lower_is_better else x > y

    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    spread_a, spread_b = (q3a - q1a) / med_a, (q3b - q1b) / med_b
    worse_by = (med_b - med_a) / med_a * (1 if lower_is_better else -1)
    wins = sum(better(y, x) for x, y in pairs)
    all_better = all(better(y, x) for x in a for y in b)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3a - q1a:
        label = "better"
    elif max(spread_a, spread_b) > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "unchanged"
    return label, med_a, med_b, (q1a, q3a), (q1b, q3b), spread_a, spread_b, worse_by


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load(sys.argv[1]), load(sys.argv[2])
    failed = False
    print(f"{'workload':26} {'metric':14} {'A median':>11} {'B median':>11} "
          f"{'A q1..q3':>23} {'B q1..q3':>23} {'A sprd':>7} {'B sprd':>7} "
          f"{'B gain':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:26} missing from {'A' if not a_runs else 'B'}")
            failed = True
            continue
        b_by_seed = {r["seed"]: r for r in b_runs}
        same_seed = [(r, b_by_seed[r["seed"]]) for r in a_runs if r["seed"] in b_by_seed]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for x, y in same_seed]
            label, med_a, med_b, qa, qb, sa, sb, worse_by = verdict(
                a, b, metric["bound"], metric["better"] == "lower", pairs)
            failed |= label == "worse"
            print(f"{workload:26} {name:14} {med_a:11.5g} {med_b:11.5g} "
                  f"{qa[0]:11.5g}..{qa[1]:<10.5g} {qb[0]:11.5g}..{qb[1]:<10.5g} "
                  f"{sa:7.2%} {sb:7.2%} {-worse_by:+7.2%}  {label}")
        mismatched = [x["seed"] for x, y in same_seed
                      if (x["checksum"], x["rounds"], x["failed"]) !=
                         (y["checksum"], y["rounds"], y["failed"])]
        failures = sum(r["failed"] for r in a_runs + b_runs)
        attempts = sum(r["attempted"] for r in a_runs + b_runs)
        print(f"{workload:26} determinism: {len(same_seed) - len(mismatched)}/"
              f"{len(same_seed)} shared seeds agree on checksum, rounds and failures"
              + (f"; DIFFER at seeds {mismatched}" if mismatched else "")
              + f"; failed {failures}/{attempts}")
        failed |= bool(mismatched)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
