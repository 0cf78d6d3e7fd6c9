"""Validator (full node): the paper's Fig. 2 workflow on one node.

A validator receives transactions, analyses them into SAGs against its
latest snapshot, pools them, packs blocks (when mining), executes blocks
with its configured scheduler, and commits state snapshots.  Importing a
foreign block looks up the cached C-SAGs; transactions missing from the
local pool are either re-analysed on the fly or executed OCC-style with an
empty ("missing") C-SAG — both paths the paper describes.

Two scheduling extensions ride on top of the base workflow (see
docs/SCHEDULING.md):

* **mining with a lane planner** — ``propose_block`` hands the packed
  draft to a :class:`~repro.scheduling.planner.LanePlanner` that reorders
  it into low-conflict lanes and repairs stale C-SAG predictions before
  execution; the executed abort attribution feeds the planner's learned
  conflict profiles for the next block;
* **the miner-produces/validator-replays split** — with
  ``emit_schedules`` on, the realized happens-before order of every
  proposed block is sealed into a :class:`BlockSidecar`, and
  ``import_block(..., schedule=...)`` executes straight from that
  artifact with conflict discovery disabled (zero aborts, zero
  speculation), still verifying the sealed state root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..analysis.csag import CSAG, CSAGBuilder
from ..analysis.sag import PSAGCache
from ..core.errors import InvalidBlock
from ..core.types import Address
from ..evm.environment import BlockContext
from ..executors.base import BlockExecution, Executor
from ..obs.attribution import AbortAttribution
from ..obs.events import EventBus
from ..scheduling.planner import LanePlan, LanePlanner
from ..scheduling.profile import ConflictProfileStore
from ..scheduling.schedule import BlockSidecar, Schedule
from ..state.statedb import StateDB
from ..verify.trace import TraceRecorder
from .block import GENESIS_PARENT, Block, BlockHeader, make_block, validate_block_shape
from .transaction import Transaction
from .txpool import Packer, TransactionPool


@dataclass
class ValidatorStats:
    """Counters a validator accumulates across its lifetime."""

    received_txs: int = 0
    analysed_txs: int = 0
    proposed_blocks: int = 0
    imported_blocks: int = 0
    replayed_blocks: int = 0
    missing_csags: int = 0
    reanalysed_csags: int = 0
    root_mismatches: int = 0
    executed_txs: int = 0
    planner_repairs: int = 0
    planner_reorders: int = 0


class Validator:
    """One full node."""

    def __init__(
        self,
        name: str,
        statedb: StateDB,
        executor: Executor,
        threads: int = 1,
        packer: Optional[Packer] = None,
        psag_cache: Optional[PSAGCache] = None,
        reanalyse_missing: bool = True,
        planner: Optional[LanePlanner] = None,
        emit_schedules: bool = False,
        profile_path: Optional[str] = None,
        pool: Optional[TransactionPool] = None,
    ) -> None:
        self.name = name
        self.db = statedb
        self.executor = executor
        self.threads = threads
        self.pool = pool if pool is not None else TransactionPool()
        self.packer = packer if packer is not None else Packer()
        self.psag_cache = psag_cache if psag_cache is not None else PSAGCache()
        self.reanalyse_missing = reanalyse_missing
        self.planner = planner
        self.emit_schedules = emit_schedules
        # Restart continuity for the learned conflict profiles: when a
        # profile DB path is given and already exists, the planner resumes
        # with the heat it had learned in the previous run instead of
        # re-paying the warm-up aborts; save_profiles() writes it back.
        self.profile_path = profile_path
        if profile_path is not None and self.planner is not None:
            try:
                self.planner.profiles = ConflictProfileStore.load(profile_path)
            except OSError:
                pass  # first run: nothing persisted yet
        self.address = Address.derive(f"validator:{name}")
        self.stats = ValidatorStats()
        self.chain: List[BlockHeader] = []
        # Schedule artifacts sealed alongside proposed blocks, by number.
        self.sidecars: Dict[int, BlockSidecar] = {}
        self.last_plan: Optional[LanePlan] = None

    # ------------------------------------------------------------------
    # Transaction intake (analysis happens here, offline)
    # ------------------------------------------------------------------

    def _builder(self, block: Optional[BlockContext] = None) -> CSAGBuilder:
        return CSAGBuilder(self.db.codes.code_of, self.psag_cache, block)

    def receive_transaction(self, tx: Transaction, analyse: bool = True) -> bool:
        """Accept a transaction into the pool, analysing it immediately
        (the paper's SAG-analyzer stage)."""
        self.stats.received_txs += 1
        csag: Optional[CSAG] = None
        if analyse:
            csag = self._builder().build(tx, self.db.latest)
            self.stats.analysed_txs += 1
        return self.pool.add(tx, csag)

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------

    def propose_block(self, timestamp: int = 0) -> "tuple[Block, BlockExecution]":
        """Pack, (optionally) plan, execute, commit, and seal the next
        block; with ``emit_schedules`` on, seal its schedule sidecar too."""
        pooled = self.packer.pack(self.pool)
        view = self.db.latest
        context = BlockContext(self.db.height + 1, timestamp)
        txs = [p.tx for p in pooled]
        execution = self._execute(
            txs, self._pooled_csags(pooled, view), view, context,
            plan_with=self._builder(context))
        snapshot = self._commit(execution)
        return self._append_block(snapshot, txs, timestamp, execution), execution

    def save_profiles(self) -> bool:
        """Persist the planner's learned conflict profiles to the
        validator's profile DB path; returns whether anything was written
        (no-op without a planner or a configured path)."""
        if self.profile_path is None or self.planner is None:
            return False
        self.planner.profiles.save(self.profile_path)
        return True

    def adopt_statedb(self, statedb: StateDB) -> None:
        """Swap in a recovered StateDB and keep proposing from it.

        Used by the soak harness after a crash-recovery cycle: the durable
        store is reopened (log replayed, torn tail truncated) as a *new*
        StateDB, and the validator resumes on it.  The recovered chain must
        line up with the headers this validator already sealed — adopting a
        store that lost sealed blocks would silently fork the chain.
        """
        if self.chain and statedb.height != self.chain[-1].number:
            raise InvalidBlock(
                f"{self.name}: recovered store is at height {statedb.height} "
                f"but the chain head is block {self.chain[-1].number}"
            )
        if self.chain and statedb.latest.root_hash != self.chain[-1].state_root:
            raise InvalidBlock(
                f"{self.name}: recovered root diverges from the sealed "
                f"head at block {self.chain[-1].number}"
            )
        self.db = statedb

    # ------------------------------------------------------------------
    # Importing
    # ------------------------------------------------------------------

    def import_block(
        self,
        block: Block,
        verify_root: bool = True,
        schedule: Optional[Union[Schedule, BlockSidecar]] = None,
    ) -> BlockExecution:
        """Execute and commit a block mined elsewhere.

        With a ``schedule`` (the miner's sealed sidecar or bare
        :class:`Schedule`), the block replays deterministically from the
        fork-join artifact — no access-sequence speculation, no validation
        rounds, no aborts — and the sealed state root still arbitrates:
        a schedule that does not reproduce the header's root is rejected
        exactly like a fresh-execution mismatch.
        """
        if self.chain:
            validate_block_shape(block, self.chain[-1])
        txs = list(block.transactions)
        context = BlockContext(self.db.height + 1, block.header.timestamp)
        if schedule is not None:
            if isinstance(schedule, BlockSidecar):
                if schedule.block_hash != block.header.block_hash:
                    raise InvalidBlock(
                        f"{self.name}: sidecar is for block "
                        f"{schedule.block_hash.hex()[:12]}, not "
                        f"{block.header.block_hash.hex()[:12]}"
                    )
                schedule = schedule.schedule
            if schedule.tx_count != len(txs):
                raise InvalidBlock(
                    f"{self.name}: schedule covers {schedule.tx_count} "
                    f"transactions, block {block.number} has {len(txs)}"
                )
            # Replay needs no C-SAGs; just clear any pooled copies.
            self.pool.lookup_block(txs)
            execution = self._execute(txs, None, self.db.latest, context,
                                      executor=self._replayer(schedule))
            self.stats.replayed_blocks += 1
        else:
            cached, missing = self.pool.lookup_block(txs)
            self.stats.missing_csags += missing
            csags: List[CSAG] = []
            builder = self._builder(
                BlockContext(block.number, block.header.timestamp))
            for tx, csag in zip(txs, cached):
                if csag is not None:
                    csags.append(csag)
                elif self.reanalyse_missing:
                    csags.append(builder.build(tx, self.db.latest))
                    self.stats.reanalysed_csags += 1
                else:
                    csags.append(builder.build_missing(tx, self.db.latest))
            execution = self._execute(txs, csags, self.db.latest, context)
        snapshot = self._commit(execution)
        if verify_root and snapshot.root_hash != block.header.state_root:
            self.stats.root_mismatches += 1
            raise InvalidBlock(
                f"{self.name}: state root mismatch at block {block.number}: "
                f"{snapshot.root_hash.hex()[:12]} != "
                f"{block.header.state_root.hex()[:12]}"
            )
        self.chain.append(block.header)
        self.stats.imported_blocks += 1
        self.stats.executed_txs += len(txs)
        return execution

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _parent_hash(self) -> bytes:
        return self.chain[-1].block_hash if self.chain else GENESIS_PARENT

    def _replayer(self, schedule: Schedule) -> Executor:
        """A schedule-replay executor inheriting this node's substrate."""
        from ..executors.replay import ScheduleReplayExecutor

        replayer = ScheduleReplayExecutor(
            schedule, gas_time_scale=self.executor.gas_time_scale)
        replayer.substrate = self.executor.substrate
        replayer.obs = self.executor.obs
        replayer.recorder = self.executor.recorder
        return replayer

    def _pooled_csags(self, pooled, view) -> List[CSAG]:
        """The draft's C-SAGs: the pooled analysis, or a fresh one against
        ``view`` for entries admitted without."""
        builder = self._builder()
        return [
            p.csag if p.csag is not None else builder.build(p.tx, view)
            for p in pooled
        ]

    def _execute(self, txs, csags, view, context: BlockContext,
                 executor: Optional[Executor] = None,
                 plan_with: Optional[CSAGBuilder] = None) -> BlockExecution:
        """Run block ``context.number`` over the read ``view``.

        The one home of the planner hand-off (``plan_with``, the builder
        for prediction repair, is given when mining: the plan reorders
        ``txs`` in place, so the caller seals the planned order), the
        trace/abort capture, schedule emission and the flat-cache deltas.
        """
        if executor is None:
            executor = self.executor
        if plan_with is not None and self.planner is not None:
            plan = self.planner.plan(txs, csags, view, plan_with)
            txs[:] = plan.apply(txs)
            csags = plan.apply(csags)
            self.last_plan = plan
            self.stats.planner_repairs += plan.repairs
            self.stats.planner_reorders += int(plan.moved)
        hits, misses = view.flat_counts()
        kwargs = {}
        # Serial/OCC/replay schedulers need no analysis; the others accept
        # the pre-built C-SAGs.
        if executor.name.startswith(("dag", "dmvcc")):
            kwargs["csags"] = csags
        emit = self.emit_schedules and executor is self.executor
        with _capture(executor, "recorder", TraceRecorder, emit) as traced, \
                _capture(executor, "obs", EventBus,
                         self.planner is not None) as observed:
            execution = executor.execute_block(
                txs,
                view,
                self.db.codes.code_of,
                threads=self.threads,
                block=context,
                **kwargs,
            )
        if emit:
            trace = TraceRecorder()
            trace.events = traced.events()
            execution.schedule = Schedule.from_trace(
                trace, len(txs), block_number=context.number,
                producer=executor.name,
            )
        if self.planner is not None:
            self.planner.observe(
                AbortAttribution.from_events(observed.events()),
                context.number)
        # Flat-cache traffic this block generated against the view it
        # executed over (the counters are cumulative).
        after_hits, after_misses = view.flat_counts()
        execution.metrics.flat_hits = after_hits - hits
        execution.metrics.flat_misses = after_misses - misses
        return execution

    def _commit(self, execution: BlockExecution):
        """Seal the block's write batch and pull the state-layer accounting
        (commit cost, durable-log traffic) into the block's metrics."""
        snapshot = self.db.commit(execution.writes)
        report = self.db.last_commit
        metrics = execution.metrics
        if report is not None:
            metrics.commit_time = report.wall_time
            metrics.commit_hashes = report.hashes_computed
            metrics.commit_nodes_sealed = report.nodes_sealed
            if report.durable:
                metrics.db_bytes_appended = report.bytes_appended
                metrics.db_fsync_time = report.fsync_time
                metrics.db_cache_hits = report.db_cache_hits
                metrics.db_cache_misses = report.db_cache_misses
                metrics.db_pruned_nodes = report.pruned_nodes
        return snapshot

    def _append_block(self, snapshot, txs, timestamp: int,
                      execution: BlockExecution) -> Block:
        """Seal the committed ``snapshot`` into the next block of this
        node's chain, with its schedule sidecar when one was emitted."""
        block = make_block(
            number=snapshot.height,
            parent_hash=self._parent_hash(),
            state_root=snapshot.root_hash,
            txs=txs,
            timestamp=timestamp,
            miner=self.address,
            gas_used=execution.metrics.total_gas,
        )
        self.chain.append(block.header)
        if execution.schedule is not None:
            self.sidecars[block.number] = BlockSidecar(
                block.header.block_hash, execution.schedule)
        self.stats.proposed_blocks += 1
        self.stats.executed_txs += len(txs)
        return block

    @property
    def height(self) -> int:
        return self.db.height

    def state_root(self) -> bytes:
        return self.db.latest.root_hash


class _capture:
    """Borrow (or lend) one instrumentation slot of the executor for one
    block: ``recorder`` (the trace) or ``obs`` (the event bus).

    If a sink is already attached (a verify pass, the online oracle), its
    stream is shared and only the events appended during this block are
    exposed; otherwise a fresh one is attached for the duration.
    """

    def __init__(self, executor: Executor, slot: str, make, enabled: bool) -> None:
        self.executor = executor
        self.slot = slot
        self.make = make
        self.enabled = enabled
        self._sink = None
        self._lent = False
        self._start = 0

    def __enter__(self) -> "_capture":
        if self.enabled:
            self._sink = getattr(self.executor, self.slot)
            if self._sink is None:
                self._sink = self.make()
                self._lent = True
                setattr(self.executor, self.slot, self._sink)
            else:
                self._start = len(self._sink.events)
        return self

    def __exit__(self, *exc) -> None:
        if self._lent and getattr(self.executor, self.slot) is self._sink:
            setattr(self.executor, self.slot, None)

    def events(self) -> list:
        """What the slot received during the block."""
        if self._sink is None:
            return []
        return self._sink.events[self._start:]
