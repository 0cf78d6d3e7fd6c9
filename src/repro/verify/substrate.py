"""Differential backend parity: sim vs threads vs processes.

The execution substrate (``repro.substrate``) promises that moving an
executor from the discrete-event simulator onto real threads or real
multiprocessing workers changes *nothing* observable: receipts, write
sets, and the sealed Merkle root must be byte-identical.  This module is
the independent check of that promise — ``python -m repro verify
--substrate`` sweeps every scenario preset × scheduler × real backend and
compares each run against the sim baseline field by field.

Receipt parity is defined on the *result* of each transaction —
``(index, status, gas_used, return_data, error, steps)`` — not on the
``attempts`` counter: how many times a transaction was optimistically
retried is a property of physical timing, which real backends are allowed
to vary, while everything the chain commits to is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..executors import EXECUTORS
from ..substrate import SUBSTRATE_KINDS, get_substrate
from ..workload import Workload
from ..workload.scenarios import SCENARIO_NAMES, scenario_config

SUBSTRATE_SCHEDULERS = ("serial", "occ", "dag", "dmvcc")
REAL_BACKENDS = tuple(k for k in SUBSTRATE_KINDS if k != "sim")

# Scenario presets are sized for thousands of users; the parity sweep only
# needs enough traffic to exercise every protocol path, so it scales them
# down (the fuzz campaign owns breadth, this sweep owns backend parity).
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
class SubstrateCase:
    """One (scenario, scheduler, backend) run compared to its sim twin."""

    scenario: str
    scheduler: str
    backend: str
    ok: bool = True
    mismatches: List[str] = field(default_factory=list)
    wall_time: float = 0.0
    sim_wall_time: float = 0.0
    view_misses: int = 0
    worker_crashes: int = 0

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.scheduler}/{self.backend}"


@dataclass
class SubstrateReport:
    """Everything one ``verify --substrate`` sweep concluded."""

    workers: int = 0
    txs_per_block: int = 0
    cases: List[SubstrateCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> List[SubstrateCase]:
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        lines = [
            f"substrate parity: {len(self.cases)} case(s), "
            f"{self.workers} worker(s), {self.txs_per_block} txs/block"
        ]
        for case in self.cases:
            status = "OK " if case.ok else "FAIL"
            lines.append(
                f"  [{status}] {case.scenario:16s} {case.scheduler:7s} "
                f"{case.backend:10s} wall={case.wall_time:7.3f}s "
                f"(sim {case.sim_wall_time:6.3f}s) "
                f"view_misses={case.view_misses} "
                f"crashes={case.worker_crashes}"
            )
            for mismatch in case.mismatches:
                lines.append(f"         ! {mismatch}")
        verdict = "OK" if self.ok else f"{len(self.failures)} case(s) DIVERGED"
        lines.append(f"substrate parity: {verdict}")
        return "\n".join(lines)


def _compare(case: SubstrateCase, workload, base, other) -> None:
    """Fill ``case`` with every divergence between sim and real output."""
    base_digest = receipt_digest(base)
    other_digest = receipt_digest(other)
    if base_digest != other_digest:
        bad = [i for i, (a, b) in enumerate(zip(base_digest, other_digest))
               if a != b]
        case.mismatches.append(
            f"receipts diverge at indices {bad[:8]}"
            + ("…" if len(bad) > 8 else "")
        )
    if base.writes != other.writes:
        keys = {k for k in set(base.writes) | set(other.writes)
                if base.writes.get(k) != other.writes.get(k)}
        case.mismatches.append(
            f"write sets diverge on {len(keys)} key(s)"
        )
    base_root = workload.db.fork().commit(base.writes).root_hash
    other_root = workload.db.fork().commit(other.writes).root_hash
    if base_root != other_root:
        case.mismatches.append(
            f"sealed roots diverge: {base_root.hex()[:16]} != "
            f"{other_root.hex()[:16]}"
        )
    case.ok = not case.mismatches


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
) -> SubstrateReport:
    """Sweep scenario × scheduler × backend; every real-backend run must
    reproduce the sim baseline's receipts, writes, and sealed root."""
    scenario_names = tuple(scenarios) if scenarios else SCENARIO_NAMES
    factories = EXECUTORS
    unknown = [s for s in schedulers if s not in factories]
    if unknown:
        raise ValueError(f"unknown scheduler(s): {', '.join(unknown)}")
    overrides = dict(PARITY_WORKLOAD)
    overrides.update(workload_overrides or {})

    report = SubstrateReport(workers=workers, txs_per_block=txs_per_block)
    substrates = {kind: get_substrate(kind, workers=workers)
                  for kind in backends}
    try:
        for scenario in scenario_names:
            workload = Workload(
                scenario_config(scenario, seed=seed, **overrides))
            txs = workload.transactions(txs_per_block)
            snapshot = workload.db.latest
            resolver = workload.db.codes.code_of
            for name in schedulers:
                base = factories[name]().execute_block(
                    txs, snapshot, resolver, threads=threads)
                for kind in backends:
                    case = SubstrateCase(
                        scenario=scenario, scheduler=name, backend=kind)
                    execution = factories[name]().attach_substrate(
                        substrates[kind]).execute_block(
                            txs, snapshot, resolver, threads=threads)
                    case.wall_time = execution.metrics.wall_time
                    case.sim_wall_time = base.metrics.wall_time
                    case.view_misses = execution.metrics.view_misses
                    case.worker_crashes = execution.metrics.worker_crashes
                    _compare(case, workload, base, execution)
                    report.cases.append(case)
                    if progress is not None:
                        progress(
                            f"substrate: {case.label} "
                            + ("ok" if case.ok else "DIVERGED"))
    finally:
        for substrate in substrates.values():
            substrate.close()
    return report
