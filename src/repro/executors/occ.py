"""OCC-based parallel executor (optimistic concurrency control baseline).

The paper's OCC comparator executes transactions in parallel without any
dependency information, then "aborts and re-executes the transactions that
violate deterministic serializability until there is none to be aborted".
We implement the round-based scheme in its modern multi-version formulation
(as in Block-STM / Sparkle), with a faithful *timing* model:

1. transactions needing (re-)execution are bound to simulated threads FIFO;
   a transaction reads the versions published *before its start time* —
   concurrent transactions cannot see each other, which is exactly where
   optimistic conflicts come from (one thread ⇒ fully serial ⇒ no aborts);
2. after each round, every executed transaction is validated in block
   order: if any recorded read no longer matches the latest writer below
   it, the transaction is stale and re-executes next round;
3. rounds repeat to a fixpoint; the validated state equals serial execution.

Each conflict costs a full re-execution (the paper's high-contention
weakness); validation is costed as free, which favours OCC.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from ..core.types import StateKey
from ..evm.environment import BlockContext
from ..sim.metrics import TxMetrics
from ..state.statedb import Snapshot
from .base import (
    SNAPSHOT_WRITER, BlockExecution, Executor, Receipt, VersionStore,
)
from .serial import run_tx_serially
from .txprogram import TxResult


class OCCExecutor(Executor):
    """Optimistic execute–validate rounds on a simulated thread pool."""

    name = "occ"

    def __init__(self, gas_time_scale: float = 1.0, max_rounds: int = 10_000,
                 psag_cache=None) -> None:
        super().__init__(gas_time_scale)
        self.max_rounds = max_rounds
        # The P-SAGs that seed real-substrate dispatch views (see
        # run_occ_real); the simulator path never consults them.
        if psag_cache is None:
            from ..analysis.sag import PSAGCache
            psag_cache = PSAGCache()
        self.psag_cache = psag_cache

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
    ) -> BlockExecution:
        """Execute ``txs`` with optimistic rounds; see Executor."""
        pool = self._substrate_pool(threads)
        if pool is not None:
            from ..substrate.coordinator import run_occ_real
            return run_occ_real(self, pool, txs, snapshot, code_resolver,
                                block, threads=threads)
        wall_start = perf_counter()
        count = len(txs)
        recorder = self.recorder
        obs = self.obs
        store = VersionStore(snapshot)
        results: List[Optional[TxResult]] = [None] * count
        read_versions: List[Dict[StateKey, Tuple[int, int]]] = [{} for _ in range(count)]
        write_keys: List[Set[StateKey]] = [set() for _ in range(count)]
        attempts = [0] * count
        per_tx = [TxMetrics(index=i) for i in range(count)]
        needs_execution = list(range(count))
        clock = 0.0
        rounds = 0
        if obs is not None:
            obs.block_start(0.0, scheduler=self.name, threads=threads,
                            tx_count=count)
            for index in range(count):
                obs.tx_ready(0.0, index)

        while needs_execution:
            rounds += 1
            if rounds > self.max_rounds:
                raise RuntimeError("OCC failed to converge")

            # Versions of the transactions being redone disappear for the
            # round (they are being recomputed).
            for index in needs_execution:
                if recorder is not None:
                    for key in write_keys[index]:
                        recorder.retract(index, key)
                store.retract(index, write_keys[index])

            # FIFO thread binding: each transaction starts when a thread
            # frees up and sees only versions published before that instant.
            thread_heap = [(clock, tid) for tid in range(threads)]
            heapq.heapify(thread_heap)
            round_end = clock
            for index in needs_execution:
                start, tid = heapq.heappop(thread_heap)
                attempts[index] += 1
                if obs is not None:
                    if attempts[index] > 1:
                        obs.version_wait_end(clock, index)
                        obs.tx_reexecute(clock, index, attempt=attempts[index])
                        obs.tx_ready(clock, index, attempt=attempts[index])
                    obs.tx_start(start, index, attempt=attempts[index],
                                 thread=tid)
                reader, reads, seen = store.reader_for(index, before=start)
                result, writes = run_tx_serially(
                    txs[index], reader, code_resolver, block,
                    recorder=recorder, index=index, versions=seen,
                    attempt=attempts[index],
                )
                end = start + result.gas_used * self.gas_time_scale
                results[index] = result
                read_versions[index] = reads
                write_keys[index] = set(writes)
                store.publish(index, writes, time=end)
                if obs is not None:
                    obs.tx_end(end, index, attempt=attempts[index],
                               success=result.success,
                               gas_used=result.gas_used)
                if recorder is not None:
                    for key, value in writes.items():
                        recorder.publish(index, key, "abs", value)
                    recorder.complete(index, attempt=attempts[index],
                                      success=result.success,
                                      gas_used=result.gas_used)
                per_tx[index].start_time = start
                per_tx[index].end_time = end
                heapq.heappush(thread_heap, (end, tid))
                round_end = max(round_end, end)
            clock = round_end

            # Validation sweep (sequential, in block order), against the
            # final store state: any read that would now resolve differently
            # marks the reader stale.
            needs_execution = []
            for index in range(count):
                conflict_key = None
                conflict_writer = SNAPSHOT_WRITER
                for key, observed in read_versions[index].items():
                    current = store.read(key, index)
                    if current != observed:
                        conflict_key = key
                        conflict_writer = current[1]
                        break
                if conflict_key is not None:
                    if recorder is not None:
                        recorder.abort(index, attempt=attempts[index])
                    if obs is not None:
                        # The stale transaction waits out the round barrier
                        # from the end of its doomed attempt: back-date the
                        # version-wait so the wasted span is visible.
                        obs.tx_abort(clock, index, attempt=attempts[index],
                                     key=conflict_key, writer=conflict_writer)
                        obs.version_wait_begin(
                            per_tx[index].end_time, index,
                            keys=(conflict_key,),
                            blockers=(conflict_writer,),
                        )
                    needs_execution.append(index)

        receipts = [
            Receipt(index=i, result=results[i], attempts=attempts[i])  # type: ignore[arg-type]
            for i in range(count)
        ]
        for i in range(count):
            per_tx[i].attempts = attempts[i]
            per_tx[i].aborted_times = attempts[i] - 1
            per_tx[i].gas_used = results[i].gas_used  # type: ignore[union-attr]
            per_tx[i].succeeded = results[i].success  # type: ignore[union-attr]

        if obs is not None:
            obs.block_end(clock, makespan=clock)

        metrics = self._base_metrics(threads, receipts)
        metrics.makespan = clock
        metrics.utilisation = (
            min(1.0, metrics.serial_time / (clock * threads)) if clock else 0.0
        )
        metrics.per_tx = per_tx
        metrics.wall_time = perf_counter() - wall_start
        return BlockExecution(
            writes=store.final_writes(), receipts=receipts, metrics=metrics
        )

