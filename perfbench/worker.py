"""One run of one workload: the process the benchmark measures.

Started by ``run.py`` (own process group, fixed ``PYTHONHASHSEED``,
``REPRO_SUBSTRATE`` cleared, ``src/`` on the path, a work directory inside
the checkout).  Not pinned to a core: a pinned process cannot leave a
contended core, and pinned prototypes spread no less.

The last line of standard output is the result object; everything else goes
to standard error or to the ``--details`` file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, Optional, Sequence

from procedure import Run, note, slot_latencies, untraced
from workloads import WORKLOADS, sizes_for

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest-corrupt-root", action="store_true")
    parser.add_argument("--details", default="")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    declared = declared_metrics(traced)
    sizes = sizes_for(WORKLOADS[args.workload], args.seconds, traced, args.smoke)
    run = Run(args.workload, args.seed, sizes, args.workdir, args.smoke,
              args.selftest_corrupt_root, traced)
    details: Dict[str, object] = {}
    if traced:
        import layers
        values = layers.traced(run, details, args.spans)
    else:
        values = untraced(run)

    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    bad = sorted(name for name, value in values.items() if not math.isfinite(value))
    if bad:
        raise SystemExit(f"metrics not finite: {bad}")

    failed = run.failures.total
    for check, count in sorted(run.failures.by_check.items()):
        note(f"FAILED {check}: {count} transaction(s)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": declared[name]}
            for name in declared
        },
    }
    if args.details:
        details.update({
            "workload": args.workload, "seed": args.seed, "trace": int(traced),
            "sizes": sizes.__dict__, "failures": dict(run.failures.by_check),
            "setups_s": run.setups_s,
            "paced_backlogged_laps": run.backlogged,
            "paced_slot_latency_ms": [
                [round(value * 1e3, 3) for value in slot_latencies(lap)]
                for lap in run.paced
            ],
            "lap_tx_per_s": {
                scheduler: [lap.txs / lap.elapsed for lap in laps]
                for scheduler, laps in run.saturated.items()
            },
            "result": result,
        })
        with open(args.details, "w") as handle:
            json.dump(details, handle, indent=1, default=str)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
