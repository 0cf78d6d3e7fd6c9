"""Conflict-aware lane planning and deterministic schedule replay.

Two claims, both archived as stamped JSON:

* **Planner A/B** — on the adversarial ``abort_storm`` preset (the
  abort-maximizer's ``setA``/``UpdateB`` dependency chains) at threads=8,
  executing the *planned* block (lane partition + prediction repair) must
  cut DMVCC aborts by >= 30% versus the unplanned packed order.  The
  ``mix`` preset is measured alongside as the representative-workload
  datapoint (recorded, not asserted — its abort rate is already low).
* **Replay-parity sweep** — for every scenario, the block's sealed
  :class:`Schedule` replays with zero aborts and zero speculation,
  byte-identical to the speculative execution (receipts, write sets,
  committed roots) on the sim and threads substrates.  Any divergence is
  dumped as a JSON artifact (``REPRO_SCHED_DIVERGENCE_DIR``) before the
  assertion fires, so CI failures ship the evidence.
"""

import json
import os

from conftest import scaled

from repro.analysis.csag import CSAGBuilder
from repro.bench.reporting import save_results_json
from repro.executors import DMVCCExecutor, ScheduleReplayExecutor
from repro.scheduling import LanePlanner, Schedule
from repro.substrate import get_substrate
from repro.verify import receipt_digest
from repro.verify.trace import TraceRecorder
from repro.workload import Workload
from repro.workload.scenarios import scenario_config

THREADS = 8
BENCH_TXS = scaled(64, minimum=32)
BENCH_WORKLOAD = dict(
    users=scaled(120, minimum=60), erc20_tokens=3, dex_pools=2,
    nft_collections=2, icos=1,
)
AB_SCENARIOS = ("abort_storm", "mix")
REPLAY_SCENARIOS = ("abort_storm", "mix", "mint_storm")
ABORT_REDUCTION_FLOOR = 0.30

_cases = {}


def _case(scenario):
    """(workload, txs, csags) for one scenario, built once per process."""
    if scenario not in _cases:
        workload = Workload(scenario_config(scenario, seed=7, **BENCH_WORKLOAD))
        txs = workload.transactions(BENCH_TXS)
        builder = CSAGBuilder(workload.db.codes.code_of)
        csags = [builder.build(tx, workload.db.latest) for tx in txs]
        _cases[scenario] = (workload, txs, csags, builder)
    return _cases[scenario]


def bench_planner_abort_reduction():
    """Planned vs unplanned DMVCC aborts, threads=8, per scenario."""
    results = {}
    for scenario in AB_SCENARIOS:
        workload, txs, csags, builder = _case(scenario)
        snapshot = workload.db.latest

        unplanned = DMVCCExecutor().execute_block(
            txs, snapshot, workload.db.codes.code_of,
            threads=THREADS, csags=list(csags))

        planner = LanePlanner()
        planned_csags = list(csags)
        plan = planner.plan(txs, planned_csags, snapshot, builder)
        planned = DMVCCExecutor().execute_block(
            plan.apply(txs), snapshot, workload.db.codes.code_of,
            threads=THREADS, csags=plan.apply(planned_csags))

        before, after = unplanned.metrics.aborts, planned.metrics.aborts
        reduction = (before - after) / before if before else 0.0
        results[scenario] = {
            "txs": len(txs),
            "threads": THREADS,
            "aborts_unplanned": before,
            "aborts_planned": after,
            "abort_reduction": round(reduction, 4),
            "lanes": plan.lane_count,
            "repairs": plan.repairs,
            "reordered": plan.moved,
            "makespan_unplanned": round(unplanned.metrics.makespan, 2),
            "makespan_planned": round(planned.metrics.makespan, 2),
        }
        print(f"\n{scenario}: aborts {before} -> {after} "
              f"({reduction:.0%} reduction; {plan.lane_count} lane(s), "
              f"{plan.repairs} repair(s))")

    save_results_json(
        os.environ.get("REPRO_SCHED_BENCH_OUT", "scheduling_ab.json"),
        {
            "benchmark": "planner_abort_reduction",
            "threads": THREADS,
            "asserted_floor": ABORT_REDUCTION_FLOOR,
            "scenarios": results,
        },
    )
    storm = results["abort_storm"]
    assert storm["aborts_unplanned"] > 0, (
        "abort_storm produced no aborts to reduce — preset regressed")
    assert storm["abort_reduction"] >= ABORT_REDUCTION_FLOOR, (
        f"planner cut abort_storm aborts only "
        f"{storm['abort_reduction']:.0%} "
        f"({storm['aborts_unplanned']} -> {storm['aborts_planned']}), "
        f"need >= {ABORT_REDUCTION_FLOOR:.0%}")


def _dump_divergence(scenario, backend, reference, replay, schedule):
    """Write the divergence evidence before the assertion fires."""
    directory = os.environ.get("REPRO_SCHED_DIVERGENCE_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        f"replay_divergence_{scenario}_{backend}.json")
    with open(path, "w") as handle:
        json.dump({
            "scenario": scenario,
            "backend": backend,
            "schedule": schedule.to_json(),
            "reference_receipts": [list(map(repr, r))
                                   for r in receipt_digest(reference)],
            "replay_receipts": [list(map(repr, r))
                                for r in receipt_digest(replay)],
            "write_set_delta": {
                repr(k): {"reference": reference.writes.get(k),
                          "replay": replay.writes.get(k)}
                for k in (set(reference.writes) ^ set(replay.writes))
                | {k for k in set(reference.writes) & set(replay.writes)
                   if reference.writes[k] != replay.writes[k]}
            },
        }, handle, indent=2, default=str)
    return path


def bench_replay_parity_sweep():
    """Every scenario's schedule replays byte-identically, zero aborts."""
    failures = []
    summary = {}
    for scenario in REPLAY_SCENARIOS:
        workload, txs, _, _ = _case(scenario)
        recorder = TraceRecorder()
        reference = DMVCCExecutor().attach_recorder(recorder).execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=THREADS)
        schedule = Schedule.from_trace(recorder, len(txs), producer="dmvcc")

        for backend in ("sim", "threads"):
            substrate = None if backend == "sim" else get_substrate(
                backend, workers=min(THREADS, 4))
            try:
                executor = ScheduleReplayExecutor(schedule)
                if substrate is not None:
                    executor.attach_substrate(substrate)
                replay = executor.execute_block(
                    txs, workload.db.latest, workload.db.codes.code_of,
                    threads=THREADS)
            finally:
                if substrate is not None:
                    substrate.close()

            identical = (
                receipt_digest(replay) == receipt_digest(reference)
                and replay.writes == reference.writes
            )
            root = workload.db.fork().commit(replay.writes).root_hash
            ref_root = workload.db.fork().commit(reference.writes).root_hash
            ok = (identical and root == ref_root
                  and replay.metrics.aborts == 0)
            summary[f"{scenario}/{backend}"] = {
                "identical": identical,
                "roots_match": root == ref_root,
                "replay_aborts": replay.metrics.aborts,
                "schedule_depth": schedule.depth(),
            }
            if not ok:
                failures.append(_dump_divergence(
                    scenario, backend, reference, replay, schedule))

    save_results_json(
        os.environ.get("REPRO_SCHED_REPLAY_OUT", "scheduling_replay.json"),
        {"benchmark": "schedule_replay_parity", "sweep": summary},
    )
    print("\nreplay parity: " + ", ".join(
        f"{case}={'ok' if v['identical'] and v['roots_match'] else 'DIVERGED'}"
        for case, v in summary.items()))
    assert not failures, (
        f"schedule replay diverged; evidence: {failures}")
