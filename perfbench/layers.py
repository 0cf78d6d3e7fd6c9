"""The traced run: the per-layer metrics, measured from outside.

Separate from the runs that give the end-to-end numbers.  One set-up, the
lap pairs (the first untraced, the rest with the span wrappers on), one
strictly sequential lap, one paced lap, the replay and the probes.  Stage
times come from the public ``PipelineReport``/``StageStats``, per-block
counters from ``BlockExecution.metrics`` through the ``on_block`` hook (read
after the drain), spans from ``tracing``.

Counts the sequential replay produces repeat exactly for a seed; counts read
from pipelined laps depend on lane timing (analysis reads the newest
*sealed* snapshot), so the details file says whether all laps agreed.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace
from typing import Dict, List

from repro.workload.generator import Workload

import estimator
import probes
import tracing
from harness import Lap
from procedure import Run, note, slot_latencies

STREAM_STAGES = ("ingest", "analyse", "pack", "execute")
COMMIT_STAGES = ("seal", "persist")
# Replay counts: a function of the chain alone.
EXACT = ("evm.instr_per_tx", "workload.genesis_keys", "validator.root_mismatches")


def _busy(lap: Lap, stages) -> float:
    return sum(lap.report.stages[name].busy for name in stages)


def _median_over(laps: List[Lap], value) -> float:
    return statistics.median([value(lap) for lap in laps])


def _per_block_sum(lap: Lap, field: str) -> float:
    return sum(getattr(metrics, field) for metrics in lap.metrics)


def traced(run: Run, details: Dict[str, object], spans_path: str) -> Dict[str, float]:
    sizes = run.sizes
    run.set_up(times=1)
    setup = run.setup

    # The part of Workload() that grows with genesis: the same configuration
    # with two users compiles and deploys the same contracts.
    start = time.perf_counter()
    Workload(replace(setup.workload.config, users=2))
    fixed_s = time.perf_counter() - start

    traced_pairs = range(1, sizes.lap_pairs)
    run.saturated_laps(traced_pairs=traced_pairs)
    dmvcc, serial = run.saturated["dmvcc"], run.saturated["serial"]
    sequential = run.lap("dmvcc", "seq", max_inflight=0)
    run.paced_laps()
    paced = run.paced[0]
    replayed = run.replay()
    reopen_s = run.check_reopen()

    values: Dict[str, float] = {}
    block_values, wrong = probes.block_probes(setup, run.reference, sizes.probe_blocks)
    run.attempted += sizes.probe_blocks * run.spec.txs_per_block
    run.failures.add("probe_writes_differ", wrong)
    values.update(block_values)
    values.update(probes.analysis_probes(setup))
    values.update(probes.state_probes(setup, os.path.join(run.workdir, "probe-state")))
    genesis = list(setup.workload.db.latest.items())
    values.update(probes.trie_probes(genesis))

    txs = len(setup.txs)
    blocks = sizes.blocks
    quiet = {name: run.quiet_tx_per_s(name) for name in ("dmvcc", "serial")}
    lap_rates = {
        name: [lap.txs / lap.elapsed for lap in laps]
        for name, laps in run.saturated.items()
    }
    all_laps = dmvcc + serial + [sequential] + run.paced
    flat_hits = sum(lap.flat_hits for lap in dmvcc)
    flat_misses = sum(lap.flat_misses for lap in dmvcc)
    cache_hits = sum(_per_block_sum(lap, "db_cache_hits") for lap in dmvcc)
    cache_misses = sum(_per_block_sum(lap, "db_cache_misses") for lap in dmvcc)
    untraced_s = dmvcc[0].elapsed + serial[0].elapsed
    traced_s = statistics.median([
        dmvcc[i].elapsed + serial[i].elapsed for i in traced_pairs
    ])
    merged = sum(
        1 for block, slot in zip(paced.fingerprint, run.reference_print)
        if set(block[1]) != set(slot[1])
    )

    values.update({
        "workload.seed_genesis_s": max(setup.workload_s - fixed_s, 0.0),
        "workload.genesis_keys": float(len(genesis)),
        "workload.txgen_us_per_tx": setup.txgen_s / txs * 1e6,
        "state.mirror_durable_s": setup.mirror_s,

        "txpool.ingest_us_per_tx": _median_over(dmvcc, lambda l: _busy(l, ("ingest",)) / txs * 1e6),
        "txpool.pack_ms_per_block": _median_over(dmvcc, lambda l: _busy(l, ("pack",)) / blocks * 1e3),
        "txpool.pool_peak": float(max(lap.report.pool_peak for lap in dmvcc)),
        "txpool.rejected": float(sum(lap.report.pool.rejected_total for lap in all_laps)),

        "analysis.stage_ms_per_tx": _median_over(
            dmvcc, lambda l: _busy(l, ("analyse",)) / max(l.report.stages["analyse"].items, 1) * 1e3),
        "analysis.stream_lane_share": _median_over(
            dmvcc, lambda l: _busy(l, ("analyse",)) / _busy(l, STREAM_STAGES)),

        "evm.instr_per_tx": replayed.instructions / max(replayed.txs, 1),

        "executors.execute_ms_per_tx.dmvcc": _median_over(dmvcc, lambda l: _busy(l, ("execute",)) / txs * 1e3),
        "executors.execute_ms_per_tx.serial": _median_over(serial, lambda l: _busy(l, ("execute",)) / txs * 1e3),
        "executors.dmvcc_vs_serial": quiet["dmvcc"] / quiet["serial"],
        "executors.dmvcc.abort_rate": dmvcc[0].report.aborts / max(dmvcc[0].report.executions, 1),
        "executors.dmvcc.replayed_instr_per_tx": _per_block_sum(dmvcc[0], "replayed_instructions") / txs,
        "executors.dmvcc.revalidation_hits": float(_per_block_sum(dmvcc[0], "revalidation_hits")),
        "executors.dmvcc.resumes": float(_per_block_sum(dmvcc[0], "resumes")),
        "executors.deterministic_reverts": float(dmvcc[0].report.deterministic_failures),

        "state.seal_ms_per_block": _median_over(dmvcc, lambda l: _busy(l, ("seal",)) / blocks * 1e3),
        "state.commit_hashes_per_block": _per_block_sum(dmvcc[0], "commit_hashes") / blocks,
        "state.nodes_sealed_per_block": _per_block_sum(dmvcc[0], "commit_nodes_sealed") / blocks,
        "state.flat_hit_rate": flat_hits / max(flat_hits + flat_misses, 1),

        "db.fsync_ms_per_block": _median_over(dmvcc, lambda l: _busy(l, ("persist",)) / blocks * 1e3),
        "db.bytes_per_tx": _per_block_sum(dmvcc[0], "db_bytes_appended") / txs,
        "db.node_cache_hit_rate": cache_hits / max(cache_hits + cache_misses, 1),
        "db.reopen_s": reopen_s,

        "pipeline.stream_lane.busy_share": _median_over(
            dmvcc, lambda l: _busy(l, STREAM_STAGES) / l.report.elapsed),
        "pipeline.commit_lane.busy_share": _median_over(
            dmvcc, lambda l: _busy(l, COMMIT_STAGES) / l.report.elapsed),
        "pipeline.overlap_share": _median_over(
            dmvcc, lambda l: l.report.overlap_seconds / l.report.elapsed),
        "pipeline.queue_stalls": _median_over(dmvcc, lambda l: float(l.report.queue_stalls)),
        "pipeline.stall_s": _median_over(dmvcc, lambda l: l.report.stall_time),
        "pipeline.backpressure_engagements": _median_over(
            dmvcc, lambda l: float(l.report.backpressure_engagements)),
        "pipeline.lap_tx_per_s.dmvcc.median": statistics.median(lap_rates["dmvcc"]),
        "pipeline.lap_tx_per_s.serial.median": statistics.median(lap_rates["serial"]),
        "pipeline.lap_spread_pct": max(estimator.spread_pct(r) for r in lap_rates.values()),
        "pipeline.sequential_vs_pipelined":
            (sequential.txs / sequential.elapsed) / statistics.median(lap_rates["dmvcc"]),
        "pipeline.paced.latency_ms.p80": estimator.percentile(slot_latencies(paced), 80) * 1e3,
        "pipeline.paced.pull_late_ms.p90": estimator.percentile(paced.late, 90) * 1e3,
        "pipeline.paced.blocks_merged": float(merged),

        "validator.import_ms_per_block": replayed.seconds / max(replayed.verified_blocks, 1) * 1e3,
        "validator.root_mismatches": float(replayed.root_mismatches),

        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 1e2,
    })

    spans = [span for lap in all_laps if lap.tracer for span in lap.tracer.with_block_spans()]
    self_s = tracing.self_times(spans)
    latencies = slot_latencies(paced)
    details.update({
        "exact_counts": list(EXACT),
        "lap_counts_agree": {
            "executors.dmvcc.abort_rate":
                len({(l.report.aborts, l.report.executions) for l in dmvcc}) == 1,
            "executors.deterministic_reverts":
                len({l.report.deterministic_failures for l in dmvcc + serial}) == 1,
            "executors.dmvcc.revalidation_hits":
                len({_per_block_sum(l, "revalidation_hits") for l in dmvcc}) == 1,
            "executors.dmvcc.resumes":
                len({_per_block_sum(l, "resumes") for l in dmvcc}) == 1,
        },
        "span_self_time_s": {name: round(total, 6) for name, total in sorted(self_s.items())},
        "span_count": len(spans),
        "paced_slot_latency_ms": {
            "samples": len(latencies),
            "p50": estimator.percentile(latencies, 50) * 1e3,
            "beyond_p50": estimator.samples_beyond(len(latencies), 50),
        },
        "gas_speedup.dmvcc": replayed.gas_speedup,
        "quiet_tx_per_s": quiet,
    })
    for name, total in sorted(self_s.items()):
        note(f"self time {name:28s} {total:8.3f} s")
    if spans_path:
        tracing.dump(spans_path, spans, origin=min(span.start for span in spans))
    return values
