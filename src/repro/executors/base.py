"""Executor interface and shared result types.

An executor takes a block's transactions plus the latest committed snapshot
and produces the block's final write set, per-transaction receipts, and the
scheduling metrics the benchmarks report.  All four schedulers from the
paper's evaluation implement this interface:

* ``SerialExecutor``   — the original-EVM baseline,
* ``DAGExecutor``      — conflict-DAG parallelism (ParBlockchain-style),
* ``OCCExecutor``      — optimistic execute-validate rounds,
* ``DMVCCExecutor``    — this paper's protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.types import StateKey
from ..evm.environment import BlockContext
from ..sim.clock import GAS_TIME_SCALE
from ..sim.metrics import BlockMetrics
from ..state.statedb import Snapshot
from .txprogram import TxResult


@dataclass
class Receipt:
    """Per-transaction outcome within a block execution."""

    index: int
    result: TxResult
    attempts: int = 1


@dataclass
class BlockExecution:
    """Everything produced by executing one block."""

    writes: Dict[StateKey, int]
    receipts: List[Receipt]
    metrics: BlockMetrics
    # Realized happens-before order (repro.scheduling.schedule.Schedule),
    # filled only when the producing validator emits schedule artifacts.
    schedule: Optional[object] = None

    @property
    def success_count(self) -> int:
        return sum(1 for r in self.receipts if r.result.success)


SNAPSHOT_WRITER = -1


class VersionStore:
    """Committed write versions per key, by writer index.

    The multi-version store of every executor that answers reads from a
    point in time instead of from access sequences (OCC rounds, fork-join
    DAG / schedule replay, on the simulator and on worker pools alike): a
    read by transaction ``index`` takes the latest version written by a
    transaction *below* it, else the snapshot.  Publish timestamps exist
    for the simulated OCC timing model only.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        self._snapshot = snapshot
        # key -> {writer index: (value, publish_time)}
        self._writes: Dict[StateKey, Dict[int, Tuple[int, float]]] = {}

    def read(
        self, key: StateKey, index: int, before: Optional[float] = None
    ) -> Tuple[int, int]:
        """Latest version by a writer < ``index`` visible at time ``before``
        (no time bound when ``before`` is None).  Returns (value, writer)."""
        versions = self._writes.get(key)
        best_writer = SNAPSHOT_WRITER
        best_value = 0
        if versions:
            for writer, (value, published) in versions.items():
                if writer >= index or writer <= best_writer:
                    continue
                if before is not None and published > before:
                    continue
                best_writer = writer
                best_value = value
        if best_writer == SNAPSHOT_WRITER:
            return self._snapshot.get(key), SNAPSHOT_WRITER
        return best_value, best_writer

    def reader_for(self, index: int, before: Optional[float] = None):
        """One execution's window onto the store: ``reader(key)`` answers
        as :meth:`read` does for ``index`` at ``before``; ``observed`` keeps
        the first (value, writer) it returned per key (what an optimistic
        validation re-checks) and ``writers`` the writer per key, in the
        shape ``run_tx_serially`` logs versions from.  Returns
        (reader, observed, writers)."""
        observed: Dict[StateKey, Tuple[int, int]] = {}
        writers: Dict[StateKey, int] = {}

        def reader(key: StateKey) -> int:
            value, writer = self.read(key, index, before)
            observed.setdefault(key, (value, writer))
            writers[key] = writer
            return value

        return reader, observed, writers

    def publish(self, index: int, writes: Dict[StateKey, int],
                time: float = 0.0) -> None:
        for key, value in writes.items():
            self._writes.setdefault(key, {})[index] = (value, time)

    def retract(self, index: int, keys) -> None:
        for key in keys:
            versions = self._writes.get(key)
            if versions is not None:
                versions.pop(index, None)

    def final_writes(self) -> Dict[StateKey, int]:
        return {
            key: versions[max(versions)][0]
            for key, versions in self._writes.items()
            if versions
        }


class Executor(ABC):
    """Deterministic block executor over a simulated thread pool."""

    name: str = "base"

    def __init__(self, gas_time_scale: float = GAS_TIME_SCALE) -> None:
        self.gas_time_scale = gas_time_scale
        # Optional execution-trace recorder (repro.verify.trace).  Every
        # hook site guards with ``is not None``, so the disabled path costs
        # one attribute load per state access.
        self.recorder = None
        # Optional observability event bus (repro.obs.events.EventBus).
        # Same contract as the recorder: hook sites guard with
        # ``is not None``, so disabled tracing costs one branch per hook.
        self.obs = None
        # Optional execution substrate (repro.substrate).  None defers to
        # the environment-selected default (REPRO_SUBSTRATE), which is in
        # turn None ≡ the sim backend.
        self.substrate = None
        # Optional declared-operation merge registry
        # (repro.state.merge.MergeRegistry).  None or empty keeps the
        # paper's original blind-increment-only semantics.
        self.merges = None

    def attach_recorder(self, recorder) -> "Executor":
        """Attach a :class:`repro.verify.trace.TraceRecorder`; chainable."""
        self.recorder = recorder
        return self

    def attach_obs(self, obs) -> "Executor":
        """Attach a :class:`repro.obs.events.EventBus`; chainable."""
        self.obs = obs
        return self

    def attach_substrate(self, substrate) -> "Executor":
        """Attach a :class:`repro.substrate.Substrate`; chainable."""
        self.substrate = substrate
        return self

    def attach_merges(self, merges) -> "Executor":
        """Attach a :class:`repro.state.merge.MergeRegistry`; chainable."""
        self.merges = merges
        return self

    def _effective_substrate(self):
        """The substrate this executor runs on: the attached one, else the
        environment-selected default, else None (≡ sim)."""
        if self.substrate is not None:
            return self.substrate
        from ..substrate.base import default_substrate  # lazy: avoids cycle
        return default_substrate()

    def _substrate_pool(self, threads: int):
        """The real worker pool to run on, or None for the simulator path."""
        substrate = self._effective_substrate()
        if substrate is None:
            return None
        return substrate.acquire(threads)

    @abstractmethod
    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
    ) -> BlockExecution:
        """Execute ``txs`` against ``snapshot`` on ``threads`` simulated
        threads; must satisfy deterministic serializability (Definition 2)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _base_metrics(self, threads: int, receipts: List[Receipt]) -> BlockMetrics:
        metrics = BlockMetrics(scheduler=self.name, threads=threads)
        metrics.tx_count = len(receipts)
        metrics.total_gas = sum(r.result.gas_used for r in receipts)
        # Reference serial duration: the sum of final-attempt gas.
        metrics.serial_time = metrics.total_gas * self.gas_time_scale
        metrics.executions = sum(r.attempts for r in receipts)
        metrics.aborts = sum(r.attempts - 1 for r in receipts)
        metrics.deterministic_failures = sum(
            1 for r in receipts if not r.result.success
        )
        return metrics
