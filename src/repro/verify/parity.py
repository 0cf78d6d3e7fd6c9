"""Differential parity sweeps: ``repro verify --substrate`` and ``--shards N``.

Two seams promise to change *nothing* observable.  The execution substrate
(``repro.substrate``) moves an executor from the discrete-event simulator
onto real threads or real multiprocessing workers; the sharded executor
(``repro.shard``) partitions a block over per-shard DMVCC instances.
Either way receipts, write sets, and the sealed Merkle root must be
byte-identical to the reference.  This module is the independent check of
both promises — one case/report/compare, two case generators:

* :func:`run_substrate_verify` — scenario preset × scheduler × real
  backend, each against the same scheduler on the simulator;
* :func:`run_shard_verify` — scenario preset × backend (sim included) ×
  merge mode (empty registry / the workload's declared operations), each
  against unsharded serial.

Receipt parity is defined on the *result* of each transaction —
``(index, status, gas_used, return_data, error, steps)`` — not on the
``attempts`` counter: how many times a transaction was optimistically
retried is a property of physical timing, which real backends are allowed
to vary, while everything the chain commits to is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..executors import EXECUTORS
from ..executors.serial import SerialExecutor
from ..substrate import SUBSTRATE_KINDS, get_substrate
from ..workload import Workload
from ..workload.scenarios import SCENARIO_NAMES, scenario_config

SUBSTRATE_SCHEDULERS = ("serial", "occ", "dag", "dmvcc")
REAL_BACKENDS = tuple(k for k in SUBSTRATE_KINDS if k != "sim")
SHARD_BACKENDS = SUBSTRATE_KINDS  # sim included: it is the default seam

# Scenario presets are sized for thousands of users; the parity sweeps only
# need enough traffic to exercise every protocol path, so they scale them
# down (the fuzz campaign owns breadth, these sweeps own parity).
PARITY_WORKLOAD = dict(
    users=60, erc20_tokens=3, dex_pools=2, nft_collections=2, icos=1
)


def receipt_digest(execution) -> List[Tuple]:
    """The committed-output fingerprint of a block execution.

    Everything consensus-visible, nothing timing-dependent (``attempts``
    varies with physical scheduling on real backends and is excluded).
    """
    return [
        (r.index, r.result.status.name, r.result.gas_used,
         r.result.return_data, r.result.error, r.result.steps)
        for r in execution.receipts
    ]


@dataclass
class ParityCase:
    """One run compared to its reference: ``axes`` name the point of the
    sweep after the scenario, ``counters`` what the run reports beside the
    verdict."""

    scenario: str
    axes: Tuple[str, ...]
    counters: Dict[str, object] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def label(self) -> str:
        return "/".join((self.scenario,) + self.axes)


@dataclass
class ParityReport:
    """Everything one parity sweep concluded."""

    kind: str = ""                   # "substrate" | "shard"
    setting: str = ""                # e.g. "2 worker(s)", "4 shard(s)"
    txs_per_block: int = 0
    cases: List[ParityCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> List[ParityCase]:
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        lines = [
            f"{self.kind} parity: {len(self.cases)} case(s), "
            f"{self.setting}, {self.txs_per_block} txs/block"
        ]
        for case in self.cases:
            status = "OK " if case.ok else "FAIL"
            axes = " ".join(f"{axis:10s}" for axis in case.axes)
            counters = " ".join(
                f"{name}={value}" for name, value in case.counters.items())
            lines.append(
                f"  [{status}] {case.scenario:18s} {axes} {counters}")
            for mismatch in case.mismatches:
                lines.append(f"         ! {mismatch}")
        verdict = "OK" if self.ok else f"{len(self.failures)} case(s) DIVERGED"
        lines.append(f"{self.kind} parity: {verdict}")
        return "\n".join(lines)


def _compare(case: ParityCase, workload, base, other) -> None:
    """Fill ``case`` with every divergence between reference and run."""
    base_digest = receipt_digest(base)
    other_digest = receipt_digest(other)
    if base_digest != other_digest:
        bad = [i for i, (a, b) in enumerate(zip(base_digest, other_digest))
               if a != b]
        case.mismatches.append(
            f"receipts diverge at indices {bad[:8]}"
            + ("…" if len(bad) > 8 else ""))
    if base.writes != other.writes:
        keys = {k for k in set(base.writes) | set(other.writes)
                if base.writes.get(k) != other.writes.get(k)}
        case.mismatches.append(f"write sets diverge on {len(keys)} key(s)")
    base_root = workload.db.fork().commit(base.writes).root_hash
    other_root = workload.db.fork().commit(other.writes).root_hash
    if base_root != other_root:
        case.mismatches.append(
            f"sealed roots diverge: {base_root.hex()[:16]} != "
            f"{other_root.hex()[:16]}")


# One executed point of a sweep: (axes, the reference execution, the case's
# execution, the counters to print for it).
_Point = Tuple[Tuple[str, ...], object, object, Dict[str, object]]


def _sweep(
    report: ParityReport,
    points_of: Callable[[Workload, list, dict], Iterator[_Point]],
    scenarios: Optional[Sequence[str]],
    backends: Sequence[str],
    workers: int,
    seed: int,
    overrides: dict,
    progress: Optional[Callable[[str], None]],
) -> ParityReport:
    """Drive one sweep: per scenario preset, one workload and one block;
    every point the generator executes is compared and recorded."""
    substrates = {kind: get_substrate(kind, workers=workers)
                  for kind in backends}
    try:
        for scenario in tuple(scenarios) if scenarios else SCENARIO_NAMES:
            workload = Workload(
                scenario_config(scenario, seed=seed, **overrides))
            txs = workload.transactions(report.txs_per_block)
            for axes, base, execution, counters in points_of(
                    workload, txs, substrates):
                case = ParityCase(scenario, axes, counters)
                _compare(case, workload, base, execution)
                report.cases.append(case)
                if progress is not None:
                    progress(f"{report.kind}: {case.label} "
                             + ("ok" if case.ok else "DIVERGED"))
    finally:
        for substrate in substrates.values():
            substrate.close()
    return report


def run_substrate_verify(
    scenarios: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = SUBSTRATE_SCHEDULERS,
    backends: Sequence[str] = REAL_BACKENDS,
    txs_per_block: int = 24,
    threads: int = 4,
    workers: int = 3,
    seed: int = 7,
    workload_overrides: Optional[dict] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ParityReport:
    """Sweep scenario × scheduler × backend; every real-backend run must
    reproduce the sim baseline's receipts, writes, and sealed root."""
    unknown = [s for s in schedulers if s not in EXECUTORS]
    if unknown:
        raise ValueError(f"unknown scheduler(s): {', '.join(unknown)}")

    def points(workload, txs, substrates) -> Iterator[_Point]:
        snapshot = workload.db.latest
        resolver = workload.db.codes.code_of
        for name in schedulers:
            base = EXECUTORS[name]().execute_block(
                txs, snapshot, resolver, threads=threads)
            for kind in backends:
                execution = EXECUTORS[name]().attach_substrate(
                    substrates[kind]).execute_block(
                        txs, snapshot, resolver, threads=threads)
                yield (name, kind), base, execution, {
                    "wall": f"{execution.metrics.wall_time:.3f}s",
                    "sim": f"{base.metrics.wall_time:.3f}s",
                    "view_misses": execution.metrics.view_misses,
                    "crashes": execution.metrics.worker_crashes,
                }

    return _sweep(
        ParityReport("substrate", f"{workers} worker(s)", txs_per_block),
        points, scenarios, backends, workers, seed,
        {**PARITY_WORKLOAD, **(workload_overrides or {})}, progress)


def run_shard_verify(
    shards: int = 4,
    scenarios: Optional[Sequence[str]] = None,
    backends: Sequence[str] = SHARD_BACKENDS,
    txs_per_block: int = 48,
    threads: int = 8,
    workers: int = 2,
    seed: int = 7,
    workload_overrides: Optional[dict] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ParityReport:
    """Sweep scenario × backend × merge-mode; every sharded run must
    reproduce the serial baseline's receipts, writes, and sealed root."""
    from ..shard.executor import ShardedDMVCCExecutor

    def points(workload, txs, substrates) -> Iterator[_Point]:
        snapshot = workload.db.latest
        resolver = workload.db.codes.code_of
        base = SerialExecutor().execute_block(txs, snapshot, resolver)
        registry = workload.declared_merges()
        for kind in backends:
            for merges in (False, True):
                executor = ShardedDMVCCExecutor(shards=shards)
                executor.attach_substrate(substrates[kind])
                if merges:
                    executor.attach_merges(registry)
                execution = executor.execute_block(
                    txs, snapshot, resolver, threads=threads)
                mode = "declared" if merges else "plain"
                yield (kind, mode), base, execution, {
                    "cross": execution.metrics.cross_shard_txs,
                    "requeues": execution.metrics.handoff_requeues,
                    "fallbacks": execution.metrics.shard_fallbacks,
                }

    overrides = {**PARITY_WORKLOAD, **(workload_overrides or {})}
    overrides.setdefault("shard_count", shards)
    return _sweep(
        ParityReport("shard", f"{shards} shard(s)", txs_per_block),
        points, scenarios, backends, workers, seed, overrides, progress)
