#!/usr/bin/env python3
"""Run the benchmark several times and keep every result.

    python3 perfbench/collect.py --runs 10 --out perfbench/results/spread.json
    python3 perfbench/collect.py --runs 3 --sets 2 --out perfbench/results/repeat.json

With ``--sets 2`` the two sets (``..._A.json`` and ``..._B.json``) use the same
seeds and are run alternately, the order swapping from seed to seed, which is
how two builds are compared (``compare.py A.json B.json``).  Each file is
stamped with ``repro.bench.reporting`` provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SET_NAMES = "ABCDEFGH"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": done.returncode, "wall_s": round(wall, 2), "result": result}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=3, help="runs (seeds) per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=range(1, len(SET_NAMES) + 1))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sets: List[List[dict]] = [[] for _ in range(args.sets)]
    for workload in args.workloads.split(","):
        for offset in range(args.runs):
            seed = args.first_seed + offset
            order = list(range(args.sets))
            if offset % 2:
                order.reverse()
            for index in order:
                run = one_run(workload, seed, args.seconds, args.trace)
                sets[index].append(run)
                print(f"{SET_NAMES[index]} {workload} seed {seed}: exit {run['exit_code']}, "
                      f"{run['wall_s']} s", file=sys.stderr, flush=True)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench.reporting import save_results_json

    stem, extension = os.path.splitext(args.out)
    for index, runs in enumerate(sets):
        path = args.out if args.sets == 1 else f"{stem}_{SET_NAMES[index]}{extension}"
        save_results_json(path, {
            "benchmark": "perfbench", "run_seconds": args.seconds, "runs": runs,
        })
        print(path)
    return 0 if all(r["exit_code"] == 0 for runs in sets for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
