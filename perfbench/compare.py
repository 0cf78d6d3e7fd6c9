#!/usr/bin/env python3
"""Compare two sets of runs (files written by ``collect.py``).

    python3 perfbench/compare.py A.json B.json

Per workload and end-to-end metric: both medians, the relative difference
(base = A), the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the runs of one side spread (quartile distance over median)
                  wider than the bound, so the sets cannot tell.

Metrics that are counts of the replay repeat exactly for a seed and are
compared run by run as ``same`` / ``differs``.  A larger failed share or any
``worse`` exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Functions of the sealed chain alone: equal seeds must give equal values.
EXACT = ("gas_speedup.dmvcc",)


def load(path: str) -> Dict[str, List[dict]]:
    with open(path) as handle:
        document = json.load(handle)
    by_workload: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        if run["trace"] == 0:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def values(runs: List[dict], metric: str) -> List[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs if run["result"]]


def spread(numbers: List[float]) -> float:
    """Distance between the quartiles over the median; 0 below two runs."""
    if len(numbers) < 2:
        return 0.0
    first, _mid, third = statistics.quantiles(numbers, n=4)
    return (third - first) / statistics.median(numbers)


def failed_share(runs: List[dict]) -> float:
    attempted = failed = 0
    for run in runs:
        if run["result"] is None:           # the run printed no result at all
            attempted += 1
            failed += 1
        else:
            attempted += run["result"]["attempted"]
            failed += run["result"]["failed"]
    return failed / attempted if attempted else 1.0


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[float, float, float, str]:
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a
    worsening = -change if better == "higher" else change
    if max(spread(a), spread(b)) > bound:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    else:
        word = "ok"
    return median_a, median_b, change, word


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    side_a, side_b = load(args.a), load(args.b)
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload}: missing on one side")
            bad = True
            continue
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        print(f"{workload}: {len(runs_a)} vs {len(runs_b)} runs, "
              f"failed share {share_a:.4%} vs {share_b:.4%}")
        if share_b > share_a:
            print("  failed share is larger: worse")
            bad = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = values(runs_a, name), values(runs_b, name)
            if not a or not b:
                continue
            median_a, median_b, change, word = verdict(
                a, b, metric["better"], metric["bound"])
            bad = bad or word == "worse"
            print(f"  {name:20s} {median_a:12.4f} {median_b:12.4f} {metric['unit']:6s}"
                  f" {change:+8.2%} of A   bound {metric['bound']:.0%}   {word}")
        by_seed_a = {run["seed"]: run for run in runs_a}
        for name in EXACT:
            pairs = [
                (values([by_seed_a[run["seed"]]], name), values([run], name))
                for run in runs_b if run["seed"] in by_seed_a
            ]
            if pairs:
                same = all(left == right for left, right in pairs)
                print(f"  {name:20s} exact over {len(pairs)} shared seed(s): "
                      f"{'same' if same else 'differs'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
