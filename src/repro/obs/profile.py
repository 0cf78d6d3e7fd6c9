"""The ``python -m repro profile`` driver.

Runs a seeded workload through the schedulers with an
:class:`~repro.obs.events.EventBus` attached, reconstructs per-block
timelines, and produces:

* a Chrome trace-event JSON (``trace.json``) loadable in Perfetto or
  ``chrome://tracing``, one process per (scheduler, block) section;
* a terminal report: wait-time decomposition per section, an ASCII Gantt
  of the last DMVCC block, the DMVCC critical path, and per-scheduler
  abort attribution naming the hot state keys.

Correctness is never sacrificed for observability: every parallel
execution is checked against the serial reference write set, exactly as
the benchmark harness does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..executors import EXECUTORS, SerialExecutor
from ..workload.generator import (
    Workload,
    high_contention_config,
    low_contention_config,
)
from .attribution import AbortAttribution, contract_namer
from .events import EventBus
from .export import build_chrome_trace, render_gantt_ascii, write_chrome_trace
from .timeline import Timeline, build_timeline, format_breakdown

PROFILE_SCHEDULERS = ("serial", "dag", "occ", "dmvcc")


@dataclass
class ProfileSection:
    """One (scheduler, block) execution with its reconstructed timeline."""

    scheduler: str
    block: int
    timeline: Timeline
    aborts: int = 0
    matches_serial: bool = True
    # Incremental re-execution savings (DMVCC checkpoint/resume):
    resumes: int = 0
    revalidation_hits: int = 0
    instructions_skipped: int = 0
    replayed_instructions: int = 0
    # Execution substrate: gas-clock (simulated makespan) next to the real
    # seconds the block took on the selected backend.
    backend: str = "sim"
    workers: int = 0
    wall_time: float = 0.0
    view_misses: int = 0

    @property
    def label(self) -> str:
        return f"{self.scheduler} block {self.block}"


@dataclass
class ProfileReport:
    """Everything one profiling run produced."""

    sections: List[ProfileSection] = field(default_factory=list)
    attributions: Dict[str, AbortAttribution] = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    namer: Optional[Callable] = None
    correctness_ok: bool = True
    commits: List = field(default_factory=list)  # per-block CommitReport
    pipeline: Optional[object] = None  # PipelineReport, when profiled

    def render(self, top: int = 10) -> str:
        lines = ["== wait-time decomposition =="]
        for section in self.sections:
            lines.append(f"  block {section.block}  "
                         + format_breakdown(section.timeline))
            if section.resumes or section.revalidation_hits:
                lines.append(
                    f"    └ re-exec savings: {section.resumes} resume(s), "
                    f"{section.revalidation_hits} revalidation hit(s), "
                    f"{section.instructions_skipped} instr skipped, "
                    f"{section.replayed_instructions} instr replayed")

        if self.sections:
            lines.append("")
            lines.append("== wall-clock vs gas-clock (per executor) ==")
            for section in self.sections:
                gas_clock = section.timeline.makespan
                extra = ""
                if section.backend != "sim":
                    extra = (f"  backend={section.backend} "
                             f"workers={section.workers} "
                             f"view_misses={section.view_misses}")
                if gas_clock > 0:
                    rate = (gas_clock / section.wall_time
                            if section.wall_time else 0.0)
                    clock = (f"gas-clock {gas_clock:>12,.0f}  "
                             f"wall {section.wall_time * 1e3:8.2f}ms  "
                             f"({rate:,.0f} gas-units/s)")
                else:
                    # Real backends schedule in physical time only; there
                    # is no simulated makespan to report.
                    clock = (f"gas-clock {'—':>12s}  "
                             f"wall {section.wall_time * 1e3:8.2f}ms")
                lines.append(
                    f"  {section.scheduler:7s} block {section.block}: "
                    f"{clock}{extra}")

        dmvcc_sections = [s for s in self.sections if s.scheduler == "dmvcc"]
        if dmvcc_sections:
            last = dmvcc_sections[-1]
            lines.append("")
            lines.append(render_gantt_ascii(
                last.timeline.gantt(), last.timeline.makespan,
                title=f"== {last.label}: thread schedule =="))
            path = last.timeline.critical_path()
            if path:
                lines.append("")
                lines.append(f"== {last.label}: critical path ==")
                for step in path:
                    lines.append(
                        f"  T{step.tx:<4} [{step.start:>10,.0f} → "
                        f"{step.end:>10,.0f}]  via {step.via}")

        if self.commits:
            lines.append("")
            lines.append("== state commit (batched overlay) ==")
            for commit in self.commits:
                reads = commit.flat_hits + commit.flat_misses
                rate = commit.flat_hits / reads if reads else 0.0
                lines.append(
                    f"  block {commit.height}: writes={commit.writes} "
                    f"prunes={commit.deletes} sealed={commit.nodes_sealed} "
                    f"hashes={commit.hashes_computed} "
                    f"wall={commit.wall_time * 1e3:7.2f}ms  "
                    f"flat-cache={rate:6.2%} of {reads} reads")
                if commit.durable:
                    # Decoded nodes sit in front of the byte cache, so the
                    # node-cache rate covers only the reads they missed.
                    node_reads = commit.decoded_hits + commit.decoded_misses
                    node_rate = (commit.decoded_hits / node_reads
                                 if node_reads else 0.0)
                    db_reads = commit.db_cache_hits + commit.db_cache_misses
                    db_rate = commit.db_cache_hits / db_reads if db_reads else 0.0
                    lines.append(
                        f"    └ durable: appended={commit.bytes_appended}B "
                        f"fsync={commit.fsync_time * 1e3:6.2f}ms "
                        f"decoded-nodes={node_rate:6.2%} of {node_reads} reads "
                        f"node-cache={db_rate:6.2%} of {db_reads} reads "
                        f"pruned={commit.pruned_nodes}")

        if self.pipeline is not None:
            lines.append("")
            lines.append("== streaming pipeline (stage occupancy/latency) ==")
            for line in self.pipeline.render().splitlines():
                lines.append(f"  {line}")

        for scheduler, attribution in self.attributions.items():
            lines.append("")
            lines.append(attribution.format_table(
                name_of=self.namer, top=top,
                title=f"[{scheduler}] abort attribution"))
        lines.append("")
        lines.append("correctness (write-set match vs serial): "
                     + ("OK" if self.correctness_ok else "FAILED"))
        return "\n".join(lines)


def run_profile(
    blocks: int = 2,
    txs_per_block: int = 64,
    threads: int = 8,
    schedulers: Sequence[str] = PROFILE_SCHEDULERS,
    contention: str = "high",
    config_overrides: Optional[dict] = None,
    durable_dir: Optional[str] = None,
    pipeline_blocks: int = 6,
    substrate: str = "sim",
    substrate_workers: Optional[int] = None,
) -> ProfileReport:
    """Execute ``blocks`` seeded blocks under every requested scheduler with
    event tracing on; returns the assembled :class:`ProfileReport` (the
    Chrome trace document is in ``report.trace``).

    ``pipeline_blocks`` additionally streams that many blocks through the
    :mod:`repro.pipeline` driver (DMVCC, in-memory) and surfaces per-stage
    occupancy/latency in the report; 0 skips the section.

    ``substrate`` selects the execution backend ("sim", "threads", or
    "processes"); the wall-clock section then shows real parallel seconds
    next to the simulated gas-clock, and the serial write-set check keeps
    guarding correctness on the real backend too.
    """
    overrides = dict(config_overrides or {})
    if contention == "high":
        config = high_contention_config(**overrides)
    else:
        config = low_contention_config(**overrides)
    factories = EXECUTORS
    unknown = [s for s in schedulers if s not in factories]
    if unknown:
        raise ValueError(f"unknown scheduler(s): {', '.join(unknown)}")

    substrate_obj = None
    if substrate != "sim":
        from ..substrate import get_substrate

        substrate_obj = get_substrate(substrate, workers=substrate_workers)

    workload = Workload(config)
    # With --durable, every block's write batch is also committed to an
    # on-disk mirror of the workload state, so the state-commit section can
    # report real fsync/append/cache costs alongside the in-memory seal.
    mirror = workload.db.mirror_durable(durable_dir) if durable_dir else None
    report = ProfileReport(namer=contract_namer(workload.db))
    attributions = {s: AbortAttribution() for s in schedulers if s != "serial"}
    serial = SerialExecutor()
    trace_sections: List[Tuple[str, Timeline, float]] = []

    for block_index in range(blocks):
        txs = workload.transactions(txs_per_block)
        snapshot = workload.db.snapshot(workload.db.height)
        reference = serial.execute_block(
            txs, snapshot, workload.db.codes.code_of)

        for name in schedulers:
            bus = EventBus()
            executor = factories[name]().attach_obs(bus)
            if substrate_obj is not None:
                executor.attach_substrate(substrate_obj)
            execution = executor.execute_block(
                txs, snapshot, workload.db.codes.code_of, threads=threads)
            matches = execution.writes == reference.writes
            if name == "serial":
                matches = True
            elif not matches:
                report.correctness_ok = False
            timeline = build_timeline(bus)
            section = ProfileSection(
                scheduler=name, block=block_index, timeline=timeline,
                aborts=execution.metrics.aborts, matches_serial=matches,
                resumes=execution.metrics.resumes,
                revalidation_hits=execution.metrics.revalidation_hits,
                instructions_skipped=execution.metrics.instructions_skipped,
                replayed_instructions=execution.metrics.replayed_instructions,
                backend=execution.metrics.backend,
                workers=execution.metrics.workers,
                wall_time=execution.metrics.wall_time,
                view_misses=execution.metrics.view_misses)
            report.sections.append(section)
            trace_sections.append((section.label, timeline, 0.0))
            if name in attributions:
                for event in bus.events:
                    attributions[name].feed(event)

        workload.db.commit(reference.writes)
        if mirror is not None:
            mirror.commit(reference.writes)
            if mirror.latest.root_hash != workload.db.latest.root_hash:
                report.correctness_ok = False
            report.commits.append(mirror.last_commit)
        else:
            report.commits.append(workload.db.last_commit)

    if mirror is not None:
        mirror.close()
    if substrate_obj is not None:
        substrate_obj.close()
    if pipeline_blocks:
        # Lazy import: repro.obs is imported by nearly everything, and the
        # pipeline package sits above it in the layering.
        from ..chain.txpool import Packer, TransactionPool
        from ..pipeline import PipelinedValidator, WorkloadStream

        stream_workload = Workload(config)
        driver = PipelinedValidator(
            "profile",
            stream_workload.db.fork(),
            factories["dmvcc"](),
            threads=threads,
            pool=TransactionPool(
                max_size=txs_per_block * 6, nonce_tracking=True,
                low_watermark=0.5,
            ),
            packer=Packer(max_txs=txs_per_block, order="fee"),
            max_inflight=2,
            ingest_rate=txs_per_block * 2,
        )
        source = WorkloadStream(
            stream_workload, limit=pipeline_blocks * txs_per_block,
        )
        try:
            report.pipeline = driver.run(source, pipeline_blocks)
        finally:
            driver.close()
    for name, attribution in attributions.items():
        attribution.finish()
    report.attributions = attributions
    report.trace = build_chrome_trace(
        trace_sections,
        metadata={
            "workload": "high-contention" if contention == "high"
                        else "low-contention",
            "blocks": blocks,
            "txs_per_block": txs_per_block,
            "threads": threads,
        },
    )
    return report


def profile_to_file(path: str, **kwargs) -> ProfileReport:
    """Convenience wrapper: run a profile and write its trace to ``path``."""
    report = run_profile(**kwargs)
    write_chrome_trace(path, report.trace)
    return report
