"""Serial executor: the original-EVM baseline.

Transactions run one after another; each sees every effect of its
predecessors.  Its output *defines* correctness for every parallel
scheduler (deterministic serializability, Definition 2), and its summed gas
defines the time baseline for speedups.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from ..core.types import StateKey
from ..evm.environment import BlockContext
from ..evm.events import (
    EmittedLog,
    FrameCheckpoint,
    FrameCommit,
    FrameRevert,
    StorageRead,
    StorageWrite,
    Watchpoint,
)
from ..state.journal import OverlayReader, WriteJournal
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor, Receipt
from .txprogram import StorageIncrement, TxResult, transaction_program


def run_tx_serially(
    tx, reader, code_resolver, block=None,
    recorder=None, index: int = 0, versions=None, attempt: int = 1,
) -> "tuple[TxResult, Dict[StateKey, int]]":
    """Execute one transaction against ``reader``; returns the result and
    the write set to apply (empty unless successful).

    This is the one run-to-completion loop: serial, DAG / schedule replay
    and OCC all drive a transaction through it and differ only in where
    ``reader`` finds a foreign value.  When a trace ``recorder`` is given,
    foreign reads are logged with the version they observed — the writer
    index ``versions`` holds for the key when the read returns (snapshot
    when absent), which a point-in-time ``reader`` fills as it resolves —
    establishing the version order the oracle compares traces against.
    """
    journal = WriteJournal(reader)
    program = transaction_program(tx, code_resolver, block=block)
    to_send: object = None
    while True:
        try:
            event = program.send(to_send)
        except StopIteration as stop:
            result: TxResult = stop.value
            break
        to_send = None
        if isinstance(event, StorageRead):
            own = journal.written(event.key)
            to_send = journal.read(event.key)
            if recorder is not None and not own:
                version = versions.get(event.key, -1) if versions else -1
                recorder.read(index, event.key, version, to_send,
                              attempt=attempt)
        elif isinstance(event, StorageWrite):
            journal.write(event.key, event.value)
            if recorder is not None:
                recorder.write(index, event.key, value=event.value,
                               attempt=attempt)
        elif isinstance(event, StorageIncrement):
            own = journal.written(event.key)
            base = journal.read(event.key)
            if recorder is not None and not own:
                version = versions.get(event.key, -1) if versions else -1
                recorder.read(index, event.key, version, base,
                              attempt=attempt, blind=True)
            journal.write(event.key, base + event.delta)
            if recorder is not None:
                recorder.write(index, event.key, delta=event.delta,
                               attempt=attempt)
        elif isinstance(event, FrameCheckpoint):
            to_send = journal.checkpoint()
        elif isinstance(event, FrameCommit):
            journal.commit_checkpoint(event.token)
        elif isinstance(event, FrameRevert):
            journal.revert_to(event.token)
        elif isinstance(event, (Watchpoint, EmittedLog)):
            pass
    writes = journal.write_set if result.success else {}
    return result, writes


class SerialExecutor(Executor):
    """Execute the block in order on a single simulated thread."""

    name = "serial"

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
    ) -> BlockExecution:
        """Execute ``txs`` one-by-one on a single simulated thread.

        Serial execution never ships work to substrate workers — one
        in-order stream gains nothing from them — but it still stamps the
        effective backend so wall-vs-gas comparisons line up."""
        wall_start = perf_counter()
        overlay = OverlayReader(snapshot.get)
        receipts: List[Receipt] = []
        clock = 0.0
        recorder = self.recorder
        obs = self.obs
        versions: Dict[StateKey, int] = {}  # key -> last committed writer
        if obs is not None:
            obs.block_start(0.0, scheduler=self.name, threads=1,
                            tx_count=len(txs))
        for index, tx in enumerate(txs):
            if obs is not None:
                obs.tx_ready(clock, index)
                obs.tx_start(clock, index, thread=0)
            result, writes = run_tx_serially(
                tx, overlay, code_resolver, block,
                recorder=recorder, index=index, versions=versions,
            )
            overlay.apply(writes)
            clock += result.gas_used * self.gas_time_scale
            receipts.append(Receipt(index=index, result=result))
            if obs is not None:
                obs.tx_end(clock, index, success=result.success,
                           gas_used=result.gas_used)
            if recorder is not None:
                for key, value in writes.items():
                    recorder.publish(index, key, "abs", value)
                recorder.complete(index, success=result.success,
                                  gas_used=result.gas_used)
                versions.update((key, index) for key in writes)
        if obs is not None:
            obs.block_end(clock, makespan=clock)

        metrics = self._base_metrics(threads=1, receipts=receipts)
        metrics.makespan = clock
        metrics.utilisation = 1.0 if clock else 0.0
        metrics.wall_time = perf_counter() - wall_start
        substrate = self._effective_substrate()
        if substrate is not None and substrate.kind != "sim":
            metrics.backend = substrate.kind
            metrics.workers = 1
        return BlockExecution(writes=overlay.pending, receipts=receipts, metrics=metrics)
