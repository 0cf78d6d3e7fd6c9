"""The pipelined chain driver: overlapping block production stages.

``PipelinedValidator`` *is* a :class:`~repro.chain.validator.Validator`:
every block goes through the base class's own execute, commit and
block-append steps.  What this module adds is *when* they run — the
strictly-sequential execute→commit→persist loop becomes six stages on two
lanes:

* the **stream lane** (caller's thread): *ingest* (pull from the source,
  mempool admission, backpressure hysteresis), *analyse* (C-SAG building
  against the latest sealed snapshot, the paper's arrival-time analysis),
  *pack* (fee-ordered, gas-capped drafting), *execute* (any scheduler,
  reading through a :class:`~repro.pipeline.view.PendingView`);
* the **commit lane** (one worker thread): *seal* (the PR-4 batched
  trie-overlay commit) and *persist* (the PR-5 durable fsync boundary),
  consumed from a bounded queue.

Block *N+1* therefore executes while block *N* seals and fsyncs.  The
queue bound (``max_inflight``) is the pipeline's depth: when the commit
lane falls behind, the stream lane blocks on submit (a *stall*, counted) —
backpressure inside the pipeline, mirroring the mempool watermarks that
throttle ingest at the front.

``max_inflight=0`` degenerates to the strictly-sequential driver (seal and
persist run inline on the stream lane) — the baseline
``benchmarks/bench_pipeline.py`` compares against, sharing every other
code path.

Miner-packs / validator-replays is preserved: the packed order travels in
the sealed :class:`~repro.chain.block.Block`, so any ordinary
``Validator.import_block`` replays the stream and must re-derive the same
roots (``tests/pipeline`` asserts this).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.sag import PSAGCache
from ..chain.block import Block
from ..chain.transaction import Transaction
from ..chain.txpool import Packer, PoolStats, TransactionPool
from ..chain.validator import Validator
from ..core.types import StateKey
from ..evm.environment import BlockContext
from ..executors.base import BlockExecution, Executor
from ..scheduling.planner import LanePlanner
from ..state.statedb import StateDB
from .view import PendingView

STAGES = ("ingest", "analyse", "pack", "execute", "seal", "persist")

_STOP = object()


@dataclass
class StageStats:
    """Wall-clock accounting of one pipeline stage."""

    name: str
    completions: int = 0
    items: int = 0
    busy: float = 0.0          # total wall seconds the stage was occupied
    max_latency: float = 0.0

    def record(self, latency: float, items: int = 0) -> None:
        self.completions += 1
        self.items += items
        self.busy += latency
        if latency > self.max_latency:
            self.max_latency = latency

    @property
    def mean_latency(self) -> float:
        return self.busy / self.completions if self.completions else 0.0

    def occupancy(self, elapsed: float) -> float:
        """Fraction of the run this stage was busy (lane utilisation)."""
        return self.busy / elapsed if elapsed > 0 else 0.0

    def as_dict(self, elapsed: float) -> dict:
        return {
            "completions": self.completions,
            "items": self.items,
            "busy_s": round(self.busy, 4),
            "mean_latency_ms": round(self.mean_latency * 1e3, 3),
            "max_latency_ms": round(self.max_latency * 1e3, 3),
            "occupancy": round(self.occupancy(elapsed), 4),
        }


@dataclass
class PipelineReport:
    """Aggregate outcome of one pipelined run."""

    scheduler: str = ""
    threads: int = 0
    pipelined: bool = True
    blocks: int = 0
    txs: int = 0
    elapsed: float = 0.0
    stages: Dict[str, StageStats] = field(default_factory=dict)
    pool: Optional[PoolStats] = None
    pool_peak: int = 0
    backpressure_engagements: int = 0
    throttled_pulls: int = 0       # ingest cycles skipped while engaged
    queue_stalls: int = 0          # submits that blocked on a full queue
    stall_time: float = 0.0        # wall seconds the stream lane blocked
    overlap_seconds: float = 0.0   # execute-lane busy ∩ commit-lane busy
    aborts: int = 0
    executions: int = 0
    deterministic_failures: int = 0
    total_gas: int = 0
    planner_repairs: int = 0       # C-SAGs re-refined against lane overlays
    planner_reorders: int = 0      # blocks whose planned order moved txs

    @property
    def blocks_per_sec(self) -> float:
        return self.blocks / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def txs_per_sec(self) -> float:
        return self.txs / self.elapsed if self.elapsed > 0 else 0.0

    def render(self) -> str:
        mode = "pipelined" if self.pipelined else "sequential"
        lines = [
            f"pipeline [{self.scheduler}/{mode}]: {self.blocks} block(s), "
            f"{self.txs} tx(s) in {self.elapsed:.2f}s "
            f"({self.blocks_per_sec:.2f} blocks/s, "
            f"{self.txs_per_sec:.1f} tx/s)",
            f"  overlap: {self.overlap_seconds:.3f}s execute∩commit; "
            f"{self.queue_stalls} stall(s) ({self.stall_time:.3f}s) on the "
            f"seal queue",
            f"  backpressure: {self.backpressure_engagements} engagement(s), "
            f"{self.throttled_pulls} throttled ingest cycle(s), "
            f"pool peak {self.pool_peak}",
            f"  aborts: {self.aborts}/{self.executions} attempts, "
            f"{self.deterministic_failures} deterministic revert(s)",
            "  stage      blocks   items      busy      mean       max   occupancy",
        ]
        if self.planner_repairs or self.planner_reorders:
            lines.insert(-1, (
                f"  planner: {self.planner_repairs} prediction repair(s), "
                f"{self.planner_reorders} reordered block(s)"
            ))
        for name in STAGES:
            stage = self.stages.get(name)
            if stage is None:
                continue
            lines.append(
                f"  {name:<9} {stage.completions:>6} {stage.items:>7} "
                f"{stage.busy:>8.3f}s {stage.mean_latency * 1e3:>7.2f}ms "
                f"{stage.max_latency * 1e3:>7.2f}ms {stage.occupancy(self.elapsed):>9.2%}"
            )
        if self.pool is not None:
            rejected = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.pool.rejected.items())
            ) or "none"
            lines.append(
                f"  mempool: {self.pool.admitted}/{self.pool.received} "
                f"admitted, {self.pool.replacements} replaced, "
                f"{self.pool.evictions} evicted "
                f"({self.pool.evicted_analysed} analysed), rejected: {rejected}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "config": {
                "scheduler": self.scheduler,
                "threads": self.threads,
                "pipelined": self.pipelined,
            },
            "totals": {
                "blocks": self.blocks,
                "txs": self.txs,
                "elapsed_s": round(self.elapsed, 3),
                "blocks_per_sec": round(self.blocks_per_sec, 3),
                "txs_per_sec": round(self.txs_per_sec, 2),
                "overlap_s": round(self.overlap_seconds, 4),
                "queue_stalls": self.queue_stalls,
                "stall_time_s": round(self.stall_time, 4),
                "backpressure_engagements": self.backpressure_engagements,
                "throttled_pulls": self.throttled_pulls,
                "pool_peak": self.pool_peak,
                "aborts": self.aborts,
                "executions": self.executions,
                "deterministic_failures": self.deterministic_failures,
                "total_gas": self.total_gas,
                "planner_repairs": self.planner_repairs,
                "planner_reorders": self.planner_reorders,
            },
            "stages": {
                name: stage.as_dict(self.elapsed)
                for name, stage in self.stages.items()
            },
            "mempool": self.pool.as_dict() if self.pool is not None else {},
        }


@dataclass
class _SealJob:
    height: int
    txs: List[Transaction]
    execution: BlockExecution


@dataclass
class ExecuteRecord:
    """What the execute stage observed for one block (for the stage-overlap
    property tests): the sealed base it read through and the in-flight
    heights overlaid on top — together they must cover exactly
    ``1..height-1``."""

    height: int
    base_height: int
    pending_heights: Tuple[int, ...]


class PipelinedValidator(Validator):
    """One full node driving the streaming block pipeline."""

    def __init__(
        self,
        name: str,
        statedb: StateDB,
        executor: Executor,
        threads: int = 8,
        pool: Optional[TransactionPool] = None,
        packer: Optional[Packer] = None,
        psag_cache: Optional[PSAGCache] = None,
        max_inflight: int = 2,
        ingest_rate: int = 0,
        obs=None,
        planner: Optional[LanePlanner] = None,
        emit_schedules: bool = False,
        profile_path: Optional[str] = None,
    ) -> None:
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        super().__init__(
            name, statedb, executor, threads=threads,
            pool=pool if pool is not None else TransactionPool(
                max_size=4096, nonce_tracking=True,
                base_nonce=lambda a: statedb.latest.nonce_of(a),
            ),
            packer=packer if packer is not None else Packer(
                max_txs=256, order="fee",
            ),
            psag_cache=psag_cache, planner=planner,
            emit_schedules=emit_schedules, profile_path=profile_path,
        )
        self.max_inflight = max_inflight
        # Default ingest rate: enough to keep the packer fed with headroom.
        self.ingest_rate = ingest_rate or self.packer.max_txs * 2
        self.obs = obs
        if self.pool.obs is None:
            self.pool.obs = obs
        self.blocks: List[Block] = []
        self.execute_log: List[ExecuteRecord] = []
        self.stages: Dict[str, StageStats] = {
            name: StageStats(name) for name in STAGES
        }
        # Guards what both lanes touch: the pending write sets, the sealed
        # chain/blocks/sidecars, and the obs sink.
        self._lock = threading.Lock()
        self._pending: Dict[int, Dict[StateKey, int]] = {}
        self._queue: "queue.Queue" = queue.Queue(maxsize=max(max_inflight, 1))
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None
        self._execute_intervals: List[Tuple[float, float]] = []
        self._commit_intervals: List[Tuple[float, float]] = []
        self._backpressure = False
        self.report = PipelineReport(
            scheduler=executor.name, threads=threads,
            pipelined=max_inflight > 0, stages=self.stages,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def pipelined(self) -> bool:
        return self.max_inflight > 0

    def run(
        self,
        source,
        blocks: int,
        on_block: Optional[Callable[[int, PendingView, List[Transaction], BlockExecution], None]] = None,
    ) -> PipelineReport:
        """Stream up to ``blocks`` blocks out of ``source``.

        ``on_block`` (if given) runs on the stream lane right after the
        execute stage, with the speculative view the block executed
        against still intact — the hook the serve loop uses for its online
        serializability oracle and root-parity twin.

        Stops early when the source is exhausted and the mempool can field
        no further draft.  Returns the :class:`PipelineReport`; the sealed
        :class:`Block` objects are in ``self.blocks`` for replay.
        """
        report = self.report
        started = time.perf_counter()
        if self.pipelined and self._worker is None:
            self._worker = threading.Thread(
                target=self._commit_lane, name=f"{self.name}-commit",
                daemon=True,
            )
            self._worker.start()
        produced = 0
        idle_cycles = 0
        next_height = self._speculative_height() + 1
        try:
            while produced < blocks:
                self._raise_worker_error()
                ingested = self._ingest(source)
                self._analyse()
                pooled = self._pack(next_height)
                if not pooled:
                    if ingested == 0:
                        idle_cycles += 1
                        # Stop when nothing can ever arrive (dry source /
                        # dry pool) or nothing drains despite arrivals —
                        # e.g. every pooled entry parked behind a nonce gap.
                        if (
                            getattr(source, "exhausted", False)
                            or len(self.pool) == 0
                            or idle_cycles >= 8
                        ):
                            break
                    continue
                idle_cycles = 0
                txs = [p.tx for p in pooled]
                execution, view = self._execute_stage(txs, pooled, next_height)
                if on_block is not None:
                    on_block(next_height, view, txs, execution)
                self._submit(_SealJob(next_height, txs, execution))
                produced += 1
                report.blocks += 1
                report.txs += len(txs)
                next_height += 1
        finally:
            self._drain()
            report.elapsed = time.perf_counter() - started
            report.pool = self.pool.stats
            report.planner_repairs = self.stats.planner_repairs
            report.planner_reorders = self.stats.planner_reorders
            report.overlap_seconds = _interval_overlap(
                self._execute_intervals, self._commit_intervals,
            )
        self._raise_worker_error()
        return report

    def close(self) -> None:
        """Stop the commit lane (idempotent); the StateDB stays open."""
        self._drain()

    # ------------------------------------------------------------------
    # Stream-lane stages
    # ------------------------------------------------------------------

    def _ingest(self, source) -> int:
        start = time.perf_counter()
        report = self.report
        pool = self.pool
        admitted = 0
        if self._backpressure:
            if pool.below_low:
                self._backpressure = False
                self._emit_backpressure(False)
            else:
                report.throttled_pulls += 1
                self.stages["ingest"].record(time.perf_counter() - start, 0)
                return 0
        # Never pull more than the pool has room for: backpressure exists
        # so admitted work is throttled upstream, not evicted downstream.
        room = max(pool.max_size - len(pool), 0)
        pulled = source.pull(min(self.ingest_rate, room))
        for tx in pulled:
            if pool.add(tx):
                admitted += 1
        if pool.above_high and not self._backpressure:
            self._backpressure = True
            report.backpressure_engagements += 1
            self._emit_backpressure(True)
        report.pool_peak = max(report.pool_peak, len(pool))
        latency = time.perf_counter() - start
        self._stage_done("ingest", latency, admitted)
        return len(pulled)

    def _analyse(self) -> int:
        start = time.perf_counter()
        base = self.db.latest  # newest sealed snapshot (thread-safe read)
        stale = None
        if self.planner is not None:
            # Learned hot keys: force re-analysis of pooled predictions that
            # read contention-prone state, so they track the newest seal.
            stale = {entry.key for entry in self.planner.profiles.hot_keys()}
        built = self.pool.analyse(self._builder(), base, stale_keys=stale)
        latency = time.perf_counter() - start
        self._stage_done("analyse", latency, built)
        return built

    def _pack(self, height: int):
        start = time.perf_counter()
        pooled = self.packer.pack(self.pool)
        self.pool.mark_included([p.tx for p in pooled])
        latency = time.perf_counter() - start
        self._stage_done("pack", latency, len(pooled), block=height)
        return pooled

    def _execute_stage(self, txs, pooled, height: int):
        start = time.perf_counter()
        view = self._speculative_view()
        self.execute_log.append(ExecuteRecord(
            height=height,
            base_height=view.base.height,
            pending_heights=tuple(sorted(
                h for h in self._pending_heights() if h > view.base.height
            )),
        ))
        execution = self._execute(
            txs, self._pooled_csags(pooled, view), view,
            BlockContext(number=height, timestamp=height),
            plan_with=self._builder())
        end = time.perf_counter()
        report = self.report
        metrics = execution.metrics
        report.aborts += metrics.aborts
        report.executions += metrics.executions
        report.deterministic_failures += metrics.deterministic_failures
        report.total_gas += metrics.total_gas
        self._execute_intervals.append((start, end))
        latency = end - start
        self._stage_done("execute", latency, len(txs), block=height)
        return execution, view

    def _submit(self, job: _SealJob) -> None:
        with self._lock:
            self._pending[job.height] = job.execution.writes
        if not self.pipelined:
            self._seal(job)
            return
        if self._queue.full():
            report = self.report
            report.queue_stalls += 1
            stall_start = time.perf_counter()
            self._queue.put(job)
            report.stall_time += time.perf_counter() - stall_start
        else:
            self._queue.put(job)

    # ------------------------------------------------------------------
    # Commit lane (seal + persist)
    # ------------------------------------------------------------------

    def _commit_lane(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            try:
                self._seal(job)
            except BaseException as error:  # surfaced on the stream lane
                self._worker_error = error
                return

    def _seal(self, job: _SealJob) -> None:
        start = time.perf_counter()
        snapshot = self._commit(job.execution)   # not under the lock
        end = time.perf_counter()
        metrics = job.execution.metrics
        # Both stay zero on a non-durable store.
        persist_latency = metrics.db_fsync_time
        appended = metrics.db_bytes_appended
        seal_latency = (end - start) - persist_latency
        with self._lock:
            self.blocks.append(self._append_block(
                snapshot, job.txs, job.height, job.execution))
            self._pending.pop(job.height, None)
        self._commit_intervals.append((start, end))
        writes = len(job.execution.writes)
        self._stage_done("seal", seal_latency, writes, block=job.height)
        self._stage_done("persist", persist_latency, appended,
                         block=job.height)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pending_heights(self) -> List[int]:
        with self._lock:
            return list(self._pending)

    def _speculative_height(self) -> int:
        heights = self._pending_heights()
        return max([self.db.height] + heights)

    def _speculative_view(self) -> PendingView:
        """Compose the read view for the next execute: pending batches are
        captured first, the sealed base second — a batch whose seal lands
        in between is then covered by *both*, which is safe because the
        overlay re-asserts exactly the values the base already contains."""
        with self._lock:
            pending = sorted(self._pending.items())
        base = self.db.latest
        return PendingView(base, pending)

    def _drain(self) -> None:
        if self._worker is not None and self._worker.is_alive():
            self._queue.put(_STOP)
            self._worker.join()
        self._worker = None

    def _raise_worker_error(self) -> None:
        if self._worker_error is not None:
            error = self._worker_error
            self._worker_error = None
            raise error

    def _stage_done(self, stage: str, latency: float, items: int,
                    block: int = -1) -> None:
        self.stages[stage].record(latency, items)
        if self.obs is not None:
            with self._lock:
                self.obs.stage_completed(
                    0.0, stage=stage, block=block,
                    latency=latency, items=items,
                )

    def _emit_backpressure(self, engaged: bool) -> None:
        if self.obs is not None:
            with self._lock:
                self.obs.backpressure_changed(
                    0.0, engaged=engaged, pool_size=len(self.pool),
                    capacity=self.pool.max_size,
                )


def _interval_overlap(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]],
) -> float:
    """Total overlap between two interval lists (each internally sorted by
    construction: both lanes append in time order)."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total
