"""Deterministic schedule replay: execution with conflict discovery off.

A validator holding a block's :class:`~repro.scheduling.schedule.Schedule`
sidecar does not need access sequences, validation rounds, or a conflict
DAG of its own — the miner already discovered the happens-before order.
This executor runs the fork-join plan directly: a transaction dispatches
once every gating predecessor committed, reads resolve to the latest
committed writer below the reader's index (exactly the version the
artifact's per-key writer chains guarantee is present), and nothing ever
aborts or speculates.  The output must be byte-identical to the fresh
speculative execution — ``Validator.import_block(..., schedule=...)``
still verifies the sealed state root.

The gating loop itself is the fork-join runner shared with the DAG
baseline (:func:`repro.executors.dag.run_fork_join`); this module only
validates the artifact and hands over its predecessor sets.  On real
substrates the schedule's realized key sets double as the dispatch views,
so workers replay with zero view misses, and a crashed worker's
transactions re-dispatch with identical views.
"""

from __future__ import annotations

from typing import List, Optional

from ..evm.environment import BlockContext
from ..scheduling.schedule import Schedule
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor
from .dag import run_fork_join


class ScheduleReplayExecutor(Executor):
    """Fork-join replay of a sealed schedule artifact."""

    name = "replay"

    def __init__(self, schedule: Schedule,
                 gas_time_scale: float = 1.0) -> None:
        super().__init__(gas_time_scale)
        self.schedule = schedule

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
    ) -> BlockExecution:
        """Execute ``txs`` along the sealed schedule; see Executor."""
        entries = self.schedule.entries
        if self.schedule.tx_count != len(txs):
            raise ValueError(
                f"schedule covers {self.schedule.tx_count} transactions, "
                f"block has {len(txs)}"
            )
        execution = run_fork_join(
            self, txs, snapshot, code_resolver, threads, block,
            deps=[set(e.preds) for e in entries],
            view_keys=lambda i: set(entries[i].reads),
        )
        execution.metrics.replayed = True
        return execution
