"""DAG-based parallel executor (the ParBlockchain-style baseline).

Conflicts between transactions are computed up front from the C-SAG
read/write sets and recorded as a dependency DAG; a transaction starts only
after every conflicting predecessor finished.  Two properties distinguish it
from DMVCC, exactly as the paper describes:

* **write-write conflicts are edges** — no write versioning;
* **writes become visible only at transaction completion** — no early-write
  visibility — and commutativity is not exploited (ω̄ counts as a plain ω).

The approach tolerates no analysis error: if the predicted sets miss a real
access, the execution may diverge from serial (the paper's stated weakness);
the RQ1 benchmark quantifies how often that occurs.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..analysis.csag import CSAG, CSAGBuilder
from ..core.types import StateKey
from ..evm.environment import BlockContext
from ..sim.clock import EventLoop
from ..sim.metrics import TxMetrics
from ..sim.threadpool import ThreadPool
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor, Receipt, VersionStore
from .serial import run_tx_serially
from .txprogram import TxResult


def build_conflict_dag(
    csags: List[CSAG], granularity: str = "variable"
) -> List[Set[int]]:
    """Predecessor sets: ``deps[j]`` = indices i<j conflicting with j.

    Conflict = read-write, write-read, or write-write overlap (Definition 3
    *without* DMVCC's write-versioning relaxation).

    ``granularity`` selects the conflict unit:

    * ``"variable"`` (default) — whole storage variables, as the coarse
      static analyses of prior DAG-based systems produce (two transfers on
      one token always conflict);
    * ``"slot"`` — DMVCC-grade slot-level sets, for the ablation that asks
      how much of DMVCC's win is just analysis precision.
    """
    deps: List[Set[int]] = [set() for _ in csags]
    # Conflict unit -> list of (index, reads?, writes?) in block order.
    touched: Dict[object, List[Tuple[int, bool, bool]]] = {}
    for j, csag in enumerate(csags):
        if granularity == "variable":
            reads = set(csag.coarse_read_units)
            writes = set(csag.coarse_write_units)
        else:
            # Pre-executed path unioned with every symbolically-resolved
            # potential access of the called function.
            reads = csag.read_keys | csag.static_read_keys
            writes = csag.write_keys | csag.static_write_keys
        # DAG treats commutative writes as plain writes.
        for key in reads | writes:
            r = key in reads
            w = key in writes
            for i, ri, wi in touched.get(key, ()):
                if (r and wi) or (w and ri) or (w and wi):
                    deps[j].add(i)
            touched.setdefault(key, []).append((j, r, w))
    return deps


class DAGExecutor(Executor):
    """Topological parallel execution over the conflict DAG."""

    name = "dag"

    def __init__(self, gas_time_scale: float = 1.0, granularity: str = "variable") -> None:
        super().__init__(gas_time_scale)
        self.granularity = granularity
        if granularity != "variable":
            self.name = f"dag-{granularity}"

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
        csags: Optional[List[CSAG]] = None,
    ) -> BlockExecution:
        """Execute ``txs`` respecting the conflict DAG; see Executor."""
        wall_start = perf_counter()
        if csags is None:
            builder = CSAGBuilder(code_resolver, block=block)
            csags = [builder.build(tx, snapshot) for tx in txs]
        deps = build_conflict_dag(csags, self.granularity)
        execution = run_fork_join(
            self, txs, snapshot, code_resolver, threads, block, deps,
            view_keys=lambda i: csags[i].read_keys | csags[i].static_read_keys,
            lock_events=True,
        )
        # The analysis above is part of what this baseline costs.
        execution.metrics.wall_time = perf_counter() - wall_start
        return execution


class ForkJoin:
    """Gated fork-join dispatch: the one loop behind DAG and schedule replay.

    ``deps[j]`` are the transactions that must commit before ``j`` starts
    (derived from C-SAGs by the DAG baseline, read from the sealed
    artifact by replay).  A transaction dispatches, lowest index first,
    once its predecessors committed and a lane is free; its reads take the
    latest committed writer below its index; its writes publish at
    completion.  Nothing aborts.  The two execution models are lanes:
    :class:`_SimLanes` below runs a transaction to completion at dispatch
    and schedules its completion on the gas clock, the substrate
    coordinator's lanes ship it to a worker pool.  A lane supplies
    ``now``, ``free``, ``start`` (which ends in :meth:`finish`),
    ``release``, ``drive`` and ``stamp``.
    """

    def __init__(self, executor, txs, snapshot, code_resolver, threads, block,
                 deps: List[Set[int]], lock_events: bool = False) -> None:
        self.ex = executor
        self.txs = txs
        self.resolve_code = code_resolver
        self.threads = threads
        self.block = block
        self.deps = deps
        # DAG waits are lock waits on its conflict predecessors; a replayed
        # schedule has no locks to wait on.
        self.lock_events = lock_events
        self.obs = executor.obs
        self.recorder = executor.recorder
        self.store = VersionStore(snapshot)
        self.dependents: List[List[int]] = [[] for _ in txs]
        self.remaining = [len(d) for d in deps]
        for j, dset in enumerate(deps):
            for i in dset:
                self.dependents[i].append(j)
        self.ready: List[int] = []  # min-heap: deterministic index order
        self.receipts: List[Optional[Receipt]] = [None] * len(txs)
        self.per_tx = [TxMetrics(index=i) for i in range(len(txs))]

    def execute(self) -> BlockExecution:
        wall_start = perf_counter()
        obs = self.obs
        if obs is not None:
            obs.block_start(0.0, scheduler=self.ex.name, threads=self.threads,
                            tx_count=len(self.txs))
        for index, waiting_on in enumerate(self.remaining):
            if waiting_on == 0:
                if obs is not None:
                    obs.tx_ready(0.0, index)
                heapq.heappush(self.ready, index)
            elif obs is not None and self.lock_events:
                obs.lock_wait_begin(0.0, index,
                                    holders=tuple(sorted(self.deps[index])))
        makespan = self.drive()
        if obs is not None:
            obs.block_end(self.now(), makespan=makespan)

        missing = [i for i, r in enumerate(self.receipts) if r is None]
        if missing:
            raise RuntimeError(
                f"{self.ex.name} executor deadlocked; unfinished: {missing}")
        metrics = self.ex._base_metrics(self.threads, self.receipts)
        metrics.makespan = makespan
        metrics.per_tx = self.per_tx
        metrics.wall_time = perf_counter() - wall_start
        self.stamp(metrics)
        return BlockExecution(writes=self.store.final_writes(),
                              receipts=self.receipts, metrics=metrics)

    def pump(self) -> None:
        while self.ready and self.free():
            self.start(heapq.heappop(self.ready))

    def finish(self, index: int, result: TxResult,
               writes: Dict[StateKey, int]) -> None:
        """Commit a finished transaction and release its dependents."""
        now = self.now()
        obs, recorder = self.obs, self.recorder
        if result.success:
            self.store.publish(index, writes, now)
            if recorder is not None:
                for key, value in writes.items():
                    recorder.publish(index, key, "abs", value)
        if recorder is not None:
            recorder.complete(index, success=result.success,
                              gas_used=result.gas_used)
        self.receipts[index] = Receipt(index=index, result=result)
        per = self.per_tx[index]
        per.end_time = now
        per.gas_used = result.gas_used
        per.succeeded = result.success
        if obs is not None:
            obs.tx_end(now, index, success=result.success,
                       gas_used=result.gas_used)
        self.release(index, now)
        for dep in self.dependents[index]:
            self.remaining[dep] -= 1
            if self.remaining[dep] == 0:
                if obs is not None:
                    if self.lock_events:
                        obs.lock_wait_end(now, dep)
                    obs.tx_ready(now, dep)
                heapq.heappush(self.ready, dep)
        self.pump()


class _SimLanes(ForkJoin):
    """Fork-join on the simulated thread pool, in gas time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.loop = EventLoop()
        self.pool = ThreadPool(self.threads, obs=self.obs)
        self._thread_of: Dict[int, int] = {}

    def now(self) -> float:
        return self.loop.now

    def free(self) -> bool:
        return bool(self.pool.idle_count)

    def start(self, index: int) -> None:
        start = self.loop.now
        thread = self.pool.try_occupy(start, label=f"T{index}")
        assert thread is not None
        self._thread_of[index] = thread
        if self.obs is not None:
            self.obs.tx_start(start, index, thread=thread)
        reader, _observed, seen = self.store.reader_for(index)
        result, writes = run_tx_serially(
            self.txs[index], reader, self.resolve_code, self.block,
            recorder=self.recorder, index=index, versions=seen,
        )
        self.per_tx[index].start_time = start
        self.loop.schedule(start + result.gas_used * self.ex.gas_time_scale,
                           lambda: self.finish(index, result, writes))

    def release(self, index: int, now: float) -> None:
        self.pool.release(self._thread_of.pop(index), now)

    def drive(self) -> float:
        self.loop.schedule_now(self.pump)
        return self.loop.run()

    def stamp(self, metrics) -> None:
        metrics.utilisation = self.pool.utilisation(metrics.makespan)


def run_fork_join(
    executor, txs, snapshot, code_resolver, threads, block,
    deps: List[Set[int]], view_keys: Callable[[int], Set[StateKey]],
    lock_events: bool = False,
) -> BlockExecution:
    """Run ``txs`` gated by ``deps`` on the executor's substrate.

    ``view_keys(i)`` names the keys transaction ``i`` is expected to read;
    only worker-pool lanes, which must ship a read view with each task,
    consult it."""
    pool = executor._substrate_pool(threads)
    if pool is None:
        lanes = _SimLanes(executor, txs, snapshot, code_resolver, threads,
                          block, deps, lock_events)
    else:
        from ..substrate.coordinator import PoolLanes
        lanes = PoolLanes(executor, txs, snapshot, code_resolver, threads,
                          block, deps, lock_events, pool=pool,
                          view_keys=view_keys)
    return lanes.execute()
