"""The DMVCC executor: deterministic multi-version concurrency control.

The paper's Algorithms 1–4.  The bookkeeping they share with the worker-pool
coordinator lives in :mod:`repro.executors.dmvcc_core`; this module is the
executor and the event-stepped driver that runs the core on the
discrete-event simulator:

* **schedule generation** (Alg. 1) — access sequences are seeded from the
  C-SAGs; a transaction joins ``Q_ready`` once every state item it reads is
  resolvable; ready transactions bind to simulated threads FIFO;
* **early-write visibility** (Alg. 2) — when execution crosses a release
  point with enough remaining gas, buffered writes whose keys have no
  further predicted writes are published into the access sequences, waking
  (or aborting) dependants *mid-transaction*;
* **write versioning** (Alg. 3) — every write is its own version; writes
  the analysis missed are inserted on the fly, aborting any reader that
  already consumed an older version;
* **abort** (Alg. 4) — aborted transactions release locks, retract their
  published versions (cascading), and re-enter the scheduler.

Feature flags ``enable_early_write`` and ``enable_commutative`` support the
paper's design-choice ablations; with both off, DMVCC degenerates to pure
write-versioned scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..analysis.csag import CSAG, CSAGCache
from ..analysis.sag import PSAGCache
from ..core.errors import SchedulingError
from ..core.types import StateKey
from ..core.words import WORD_MOD
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
from ..sim.clock import EventLoop
from ..sim.threadpool import ThreadPool
from ..state.merge import MergeOp
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor
from .dmvcc_core import DMVCCCore, ReadRecord, Status, TxState
from .txprogram import (
    ExecutionMeter,
    StorageIncrement,
    TxResult,
    resume_transaction_program,
    transaction_program,
)


@dataclass
class _AttemptCheckpoint:
    """Driver-side image of one VM checkpoint.

    ``read_index`` counts the read-log records already applied; resuming
    from here replays nothing before record ``read_index`` and re-answers
    that read first.  The dict copies freeze the attempt's buffered-write /
    read bookkeeping at the same boundary.  ``gas_offset`` is the
    transaction-cumulative gas at the suspended read, used to backdate the
    resumed attempt's start time so simulated completion lands exactly
    where a restart-free execution would.
    """

    read_index: int
    vm: object  # repro.evm.vm.VMCheckpoint
    gas_offset: int
    w_abs: Dict[StateKey, int]
    w_delta: Dict[StateKey, int]
    pending_blind: Dict[StateKey, Tuple[int, int, int]]
    registered_reads: Dict[StateKey, int]
    frame_stack: List[Tuple[Dict, Dict, Dict]]
    published: Dict[StateKey, Tuple[str, int]]
    release_mode: bool
    speculative_reads: int


@dataclass
class _ResumePlan:
    """A pending resume decision: the checkpoint to restart from and the
    re-validated versions of the kept read prefix."""

    checkpoint: _AttemptCheckpoint
    first_invalid: int
    prefix_versions: List[int] = field(default_factory=list)


@dataclass
class _TxState(TxState):
    """The running attempt of an event-stepped transaction."""

    generator: Optional[object] = None
    thread: Optional[int] = None
    start_time: float = 0.0
    pending_entry: Optional[object] = None
    w_abs: Dict[StateKey, int] = field(default_factory=dict)
    w_delta: Dict[StateKey, int] = field(default_factory=dict)
    pending_blind: Dict[StateKey, Tuple[int, int, int]] = field(default_factory=dict)
    frame_stack: List[Tuple[Dict, Dict, Dict]] = field(default_factory=list)
    speculative_reads: int = 0
    release_mode: bool = False  # past a release point with enough gas
    # Incremental re-execution state:
    checkpoints: List[_AttemptCheckpoint] = field(default_factory=list)
    checkpoint_stride: int = 1
    meter: Optional[ExecutionMeter] = None
    resume_from: Optional[_ResumePlan] = None
    # Set by the merge attach-time recheck when a deferred guard's verdict
    # flipped: _process aborts the transaction once the generator suspends.
    merge_self_abort: Optional[StateKey] = None

    def reset_attempt(self) -> None:
        super().reset_attempt()
        self.release_mode = False
        self.generator = None
        self.thread = None
        self.pending_entry = None
        self.w_abs = {}
        self.w_delta = {}
        self.pending_blind = {}
        self.frame_stack = []
        self.checkpoints = []
        self.checkpoint_stride = 1
        self.meter = None
        self.resume_from = None
        self.merge_self_abort = None


class DMVCCExecutor(Executor):
    """Deterministic multi-version concurrency control."""

    name = "dmvcc"

    def __init__(
        self,
        gas_time_scale: float = 1.0,
        enable_early_write: bool = True,
        enable_commutative: bool = True,
        psag_cache: Optional[PSAGCache] = None,
        enable_checkpoint_resume: bool = True,
        enable_revalidation: bool = True,
        checkpoint_limit: int = 8,
        csag_cache: Optional[CSAGCache] = None,
    ) -> None:
        super().__init__(gas_time_scale)
        self.enable_early_write = enable_early_write
        self.enable_commutative = enable_commutative
        self.enable_checkpoint_resume = enable_checkpoint_resume
        self.enable_revalidation = enable_revalidation
        self.checkpoint_limit = max(checkpoint_limit, 1)
        self._psag_cache = psag_cache if psag_cache is not None else PSAGCache()
        self._csag_cache = csag_cache if csag_cache is not None else CSAGCache()
        # Side channel for the sharded executor: the last block's declared
        # merge activity (guarded reads + intents), see _BlockRun.execute.
        self.last_merge_activity = None
        if not enable_early_write and not enable_commutative:
            self.name = "dmvcc-wv"  # write-versioning only
        elif not enable_early_write:
            self.name = "dmvcc-noEW"
        elif not enable_commutative:
            self.name = "dmvcc-noCW"

    def release_gas_check(self, csag: CSAG, event, static_bound: Optional[int]) -> bool:
        """Algorithm 2's release guard: may this transaction publish its
        buffered writes now, mid-execution?

        Publishing is only safe when the transaction is certain to reach a
        successful completion — a later out-of-gas would force a retraction
        cascade.  Two sources of certainty, in order of strength:

        * ``static_bound`` — the worst-case gas of any path from this
          release point to termination (``ReleasePoint.gas_bound``); when
          the analysis produced one, it is sound on its own: remaining gas
          at or above it rules out OOG on *every* path.
        * the C-SAG's predicted remaining gas — a heuristic for release
          points whose tail contains loops (unbounded worst case); correct
          whenever pre-execution predicted the path actually taken.

        Either way a transaction whose pre-execution already failed never
        releases: its writes would be retracted at completion regardless.

        Tests may override this (e.g. ``return True``) to inject the
        "skipped gas check" bug the serializability oracle must catch.
        """
        if not csag.predicted_success:
            return False
        if static_bound is not None:
            return event.gas_remaining >= static_bound
        predicted_remaining = max(csag.predicted_gas - event.gas_used, 0)
        return event.gas_remaining >= predicted_remaining

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
        csags: Optional[List[CSAG]] = None,
    ) -> BlockExecution:
        """Execute ``txs`` under the DMVCC protocol; see Executor.

        ``csags`` supplies pre-built analyses (the validator's pool path);
        when omitted they are refined here against ``snapshot``.
        """
        # Declared-merge interception lives in the simulator driver; with a
        # non-empty registry attached the real-substrate coordinator (which
        # knows nothing about merge specs) is bypassed for correctness.
        pool = None if self.merges else self._substrate_pool(threads)
        if pool is not None:
            from ..substrate.coordinator import run_dmvcc_real
            return run_dmvcc_real(self, pool, txs, snapshot, code_resolver,
                                  block, csags, threads=threads)
        run = _BlockRun(self, txs, snapshot, code_resolver, threads, block, csags)
        return run.execute()


class _BlockRun(DMVCCCore):
    """One block on the gas clock: the event-stepped driver of the core.

    Transactions advance one VM event at a time on the discrete-event
    loop, so this driver owns what only an interleaved execution has: reads
    that resolve (or speculate) at the moment they happen, release points
    and early publication, checkpoints / resume / suffix retraction, and
    declared-merge abort tolerance.
    """

    state_class = _TxState

    def __init__(self, executor, txs, snapshot, code_resolver, threads, block, csags):
        self.loop = EventLoop()
        super().__init__(executor, txs, snapshot, code_resolver, block, csags)
        self.pool = ThreadPool(threads, obs=self.obs)
        self._dispatch_scheduled = False
        self.merge_tolerated = 0

    def now(self) -> float:
        return self.loop.now

    def _on_ready(self) -> None:
        self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def execute(self) -> BlockExecution:
        wall_start = perf_counter()
        self._setup(self.pool.size)
        self._schedule_dispatch()
        makespan = self.loop.run()
        while not self._all_done():
            self._rescue()
            makespan = max(makespan, self.loop.run())

        execution = self._result(self.pool.size, makespan, makespan)
        metrics = execution.metrics
        metrics.utilisation = self.pool.utilisation(makespan)
        metrics.wall_time = perf_counter() - wall_start
        self.ex.last_merge_activity = self._merge_activity()
        if self.merges is not None:
            metrics.merge_tolerated = self.merge_tolerated
            metrics.merge_intents = len(self.ex.last_merge_activity["intents"])
        return execution

    def _merge_activity(self):
        """Side channel for the sharded executor's seal validation.

        ``reads`` lists every registered read of a declared key as
        ``(index, key, observed, own_delta, operand, outcome)`` — operand
        and outcome are None for records demanding strict value equality —
        and ``intents`` lists each successful transaction's net delta per
        declared key.  The cross-shard reducer replays the global-order
        fold through these to prove (or refute) that sharded guard verdicts
        match the serial reference.
        """
        if self.merges is None:
            return None
        reads = []
        intents = []
        for s in self.states:
            for rec in s.read_log:
                if not rec.registered or self.merges.lookup(rec.key) is None:
                    continue
                observed = (rec.base + rec.merge_own) % WORD_MOD
                if rec.merge_spec is not None and rec.merge_operand is not None:
                    outcome = rec.merge_spec.outcome(observed, rec.merge_operand)
                    reads.append((s.index, rec.key, observed, rec.merge_own,
                                  rec.merge_operand, outcome))
                else:
                    reads.append((s.index, rec.key, observed, rec.merge_own,
                                  None, None))
            if s.result is not None and s.result.success:
                for key, delta in s.w_delta.items():
                    if self.merges.lookup(key) is not None:
                        intents.append((s.index, key, delta))
        return {"reads": reads, "intents": intents}

    # ------------------------------------------------------------------
    # Dispatch / stepping
    # ------------------------------------------------------------------

    def _schedule_dispatch(self) -> None:
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.loop.schedule_now(self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        while self.pool.idle_count:
            index = self.queue.pop()
            if index is None:
                return
            self._start(self.states[index])

    def _watchpoints_for(self, state: _TxState):
        code = self.resolve_code(state.tx.to)
        if code and self.ex.enable_early_write:
            release_pcs = self._contract_info(state.tx.to)[2]
            if release_pcs:
                return {state.tx.to: release_pcs}
        return None

    def _start(self, state: _TxState) -> None:
        now = self.loop.now
        if state.resume_from is not None and self._begin_resume(state, now):
            return
        state.reset_attempt()
        state.status = Status.RUNNING
        state.attempts += 1
        state.thread = self.pool.try_occupy(now, label=f"T{state.index}")
        state.start_time = now
        state.meter = ExecutionMeter()
        state.generator = transaction_program(
            state.tx, self.resolve_code, block=self.block,
            watchpoints=self._watchpoints_for(state), meter=state.meter,
        )
        if state.attempts == 1:
            self.per_tx[state.index].start_time = now
        if self.obs is not None:
            if state.attempts > 1:
                self.obs.tx_reexecute(now, state.index, attempt=state.attempts)
            self.obs.tx_start(now, state.index, attempt=state.attempts,
                              thread=state.thread if state.thread is not None else -1)
        self._advance(state, None)

    def _begin_resume(self, state: _TxState, now: float) -> bool:
        """Restart an aborted attempt from its armed checkpoint.  Returns
        False (after cleaning up) when the kept prefix went stale while the
        transaction was parked, sending the caller down the fresh path."""
        plan = state.resume_from
        state.resume_from = None
        ck = plan.checkpoint
        first_invalid, versions = self._validate_reads(state, ck.read_index)
        if first_invalid is not None:
            self._restart(state)
            return False
        prefix = state.read_log[: ck.read_index]
        self._rerecord_reads(state, prefix, versions)
        state.status = Status.RUNNING
        state.attempts += 1
        state.thread = self.pool.try_occupy(now, label=f"T{state.index}")
        # Backdate the start so the resumed attempt's events land exactly
        # where a restart-free execution's would (gas is simulated time).
        state.start_time = now - ck.gas_offset * self.ex.gas_time_scale
        state.meter = ExecutionMeter()
        state.generator = resume_transaction_program(
            state.tx, ck.vm, self.resolve_code, block=self.block,
            watchpoints=self._watchpoints_for(state), meter=state.meter,
        )
        per = self.per_tx[state.index]
        per.resumes += 1
        per.instructions_skipped += ck.vm.steps
        if self.obs is not None:
            self.obs.tx_reexecute(now, state.index, attempt=state.attempts)
            self.obs.tx_resume(now, state.index, attempt=state.attempts,
                               read_index=ck.read_index,
                               instructions_skipped=ck.vm.steps)
            self.obs.tx_start(now, state.index, attempt=state.attempts,
                              thread=state.thread if state.thread is not None else -1)
        self._reemit_reads(state, prefix, versions)
        self._advance(state, None)
        return True

    def _advance(self, state: _TxState, to_send: object) -> None:
        """Pull the next event from the generator and schedule its effect at
        its gas-derived timestamp."""
        try:
            event = state.generator.send(to_send)
        except StopIteration as stop:
            result: TxResult = stop.value
            finish = state.start_time + result.gas_used * self.ex.gas_time_scale
            state.pending_entry = self.loop.schedule(
                finish, lambda: self._complete(state, result)
            )
            return
        when = state.start_time + event.gas_used * self.ex.gas_time_scale
        state.pending_entry = self.loop.schedule(
            when, lambda: self._process(state, event)
        )

    def _process(self, state: _TxState, event) -> None:
        state.pending_entry = None
        to_send: object = None
        if isinstance(event, StorageRead):
            to_send = self._on_read(state, event)
        elif isinstance(event, StorageWrite):
            self._on_write(state, event)
            self._maybe_publish_now(state, event.key, event.gas_used)
        elif isinstance(event, StorageIncrement):
            self._on_increment(state, event)
            self._maybe_publish_now(state, event.key, event.gas_used)
        elif isinstance(event, Watchpoint):
            self._on_release_point(state, event)
        elif isinstance(event, FrameCheckpoint):
            state.frame_stack.append(
                (dict(state.w_abs), dict(state.w_delta), dict(state.registered_reads))
            )
            to_send = len(state.frame_stack)
        elif isinstance(event, FrameCommit):
            state.frame_stack.pop()
        elif isinstance(event, FrameRevert):
            w_abs, w_delta, reads = state.frame_stack.pop()
            if self.merges is not None:
                # A revert throws away operations the merge records already
                # absorbed operands for; those guards' verdicts no longer
                # describe the surviving behaviour, so degrade every record
                # of a rolled-back declared key to strict value equality.
                for key in set(state.w_delta) | set(w_delta) | \
                        set(state.registered_reads) | set(reads):
                    if (state.w_delta.get(key) == w_delta.get(key)
                            and state.registered_reads.get(key) == reads.get(key)):
                        continue
                    if self.merges.lookup(key) is None:
                        continue
                    for rec in state.read_log:
                        if rec.key == key:
                            rec.merge_spec = None
            state.w_abs, state.w_delta = w_abs, w_delta
            state.registered_reads = reads
        elif isinstance(event, EmittedLog):
            pass
        else:  # pragma: no cover
            raise SchedulingError(f"unexpected event {event!r}")
        if state.merge_self_abort is not None and state.status is Status.RUNNING:
            key = state.merge_self_abort
            state.merge_self_abort = None
            self._abort(state.index, key)
        # The event handler may have aborted this very transaction through a
        # cascade; never advance a dead generator.
        if state.status is Status.RUNNING and state.generator is not None:
            self._advance(state, to_send)

    # ------------------------------------------------------------------
    # Reads (Execute_Read)
    # ------------------------------------------------------------------

    def _on_read(self, state: _TxState, event: StorageRead) -> int:
        key = event.key
        if key in state.w_abs:
            return state.w_abs[key]
        blind_pcs = self._contract_info(state.tx.to)[0]
        if (
            self.ex.enable_commutative
            and event.pc in blind_pcs
            and key not in state.registered_reads
        ):
            # Blind increment read: the value feeds only the paired +=, so
            # it needs no lock, registers no dependency, and cannot abort.
            seq = self.sequences.get(key)
            version = -1
            from_own = False
            if key in state.w_delta:
                answer = 0
                from_own = True
            elif seq is not None:
                res = seq.best_available_read(state.index)
                answer = res.resolve_with_snapshot(self.snapshot.get(key))
                version = res.version_from
            else:
                answer = self.snapshot.get(key)
            state.pending_blind[key] = (answer, event.pc, len(state.read_log))
            state.read_log.append(ReadRecord(
                key=key, base=answer, version_from=version,
                registered=False, blind=True, from_own_delta=from_own,
            ))
            if self.recorder is not None:
                self.recorder.read(state.index, key, version, answer,
                                   attempt=state.attempts, blind=True)
            return answer

        spec = self.merges.lookup(key) if self.merges is not None else None
        if spec is not None and spec.op.delta_encodable:
            # Read of a declared ADD/SUB merge key: never blocks.  The
            # declaration promises the value feeds only the declared guard
            # and operation, so the read is answered from the best fold
            # available right now and validated later by guard *outcome*
            # instead of exact value (see _validate_reads /
            # _may_skip_abort).  It is still registered in the access
            # sequence so on-the-fly version insertions find it and trigger
            # the outcome recheck.
            if self.ex.enable_checkpoint_resume:
                self._maybe_checkpoint(state, event)
            own = state.w_delta.get(key, 0)
            base, _writer = self._registered_read(
                state, key, merge_spec=spec, merge_own=own)
            value = (base + own) % WORD_MOD
            state.registered_reads[key] = value
            return value

        if self.ex.enable_checkpoint_resume:
            self._maybe_checkpoint(state, event)
        base, writer = self._registered_read(state, key)
        if key in state.w_delta:
            # Own pending increments fold in; the write becomes absolute.
            value = (base + state.w_delta.pop(key)) % WORD_MOD
            state.w_abs[key] = value
        else:
            value = base
        state.registered_reads[key] = value
        if self.obs is not None:
            if writer >= 0 and self.states[writer].status is not Status.DONE:
                self.obs.early_read(self.loop.now, state.index, key, writer)
        return value

    def _registered_read(self, state: _TxState, key: StateKey,
                         merge_spec=None, merge_own: int = 0) -> Tuple[int, int]:
        """Resolve, register and log one versioned read (blocking resolution
        degraded to best-available for accesses the analysis missed);
        returns (base value, writer version)."""
        seq = self.sequences.sequence(key)
        resolution, speculative = self._resolve(seq, state.index)
        if speculative:
            state.speculative_reads += 1
        base = resolution.resolve_with_snapshot(self.snapshot.get(key))
        writer = resolution.version_from
        seq.record_read(state.index, writer)
        state.read_log.append(ReadRecord(
            key=key, base=base, version_from=writer,
            registered=True, speculative=speculative,
            merge_spec=merge_spec, merge_own=merge_own,
        ))
        if self.recorder is not None:
            early = writer >= 0 and self.states[writer].status is not Status.DONE
            self.recorder.read(state.index, key, writer, base,
                               attempt=state.attempts, early=early,
                               speculative=speculative)
        return base, writer

    def _maybe_checkpoint(self, state: _TxState, event: StorageRead) -> None:
        """Capture a resume point at this read boundary, if due.

        Checkpoints are taken every ``checkpoint_stride`` registered reads;
        when the retained count would exceed ``checkpoint_limit`` the list is
        thinned to every other entry and the stride doubles, so memory stays
        bounded while coverage stays geometric over the attempt's lifetime.
        """
        if state.meter is None:
            return
        read_index = len(state.read_log)
        if read_index % state.checkpoint_stride != 0:
            return
        vm_ck = state.meter.checkpoint()
        if vm_ck is None:
            return  # suspended outside the VM (e.g. the funding prologue)
        state.checkpoints.append(_AttemptCheckpoint(
            read_index=read_index,
            vm=vm_ck,
            gas_offset=event.gas_used,
            w_abs=dict(state.w_abs),
            w_delta=dict(state.w_delta),
            pending_blind=dict(state.pending_blind),
            registered_reads=dict(state.registered_reads),
            frame_stack=[(dict(a), dict(d), dict(r))
                         for a, d, r in state.frame_stack],
            published=dict(state.published),
            release_mode=state.release_mode,
            speculative_reads=state.speculative_reads,
        ))
        if len(state.checkpoints) > self.ex.checkpoint_limit:
            del state.checkpoints[1::2]
            state.checkpoint_stride *= 2
        if self.obs is not None:
            self.obs.checkpoint_taken(self.loop.now, state.index,
                                      read_index=read_index,
                                      retained=len(state.checkpoints))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _on_write(self, state: _TxState, event: StorageWrite) -> None:
        key = event.key
        pending = state.pending_blind.pop(key, None)
        if pending is not None and self.ex.enable_commutative and key not in state.w_abs:
            answer, read_pc, log_index = pending
            increments = self._contract_info(state.tx.to)[1]
            if increments.get(event.pc) == read_pc:
                delta = (event.value - answer) % WORD_MOD
                state.w_delta[key] = (state.w_delta.get(key, 0) + delta) % WORD_MOD
                if 0 <= log_index < len(state.read_log):
                    state.read_log[log_index].consumed_as_delta = True
                if self.recorder is not None:
                    self.recorder.write(state.index, key, delta=delta,
                                        attempt=state.attempts)
                return
        if self.merges is not None and key not in state.w_abs:
            spec = self.merges.lookup(key)
            if (spec is not None and spec.op.delta_encodable
                    and self._merge_write(state, key, spec, event.value)):
                return
        if self.merges is not None and self.merges.lookup(key) is not None:
            # A declared key degrading to an absolute write (no preceding
            # merge read, repeated op per read, …): its published value now
            # depends on the exact bases read, so every merge record of the
            # key loses outcome tolerance and reverts to strict equality.
            for rec in state.read_log:
                if rec.key == key:
                    rec.merge_spec = None
        state.w_abs[key] = event.value
        state.w_delta.pop(key, None)
        if self.recorder is not None:
            self.recorder.write(state.index, key, value=event.value,
                                attempt=state.attempts)

    def _merge_write(self, state: _TxState, key: StateKey, spec, value: int) -> bool:
        """Convert an absolute write of a declared ADD/SUB key into a delta
        intent against the value the program believes the key holds.  Returns
        False (caller falls back to an absolute write) when there is no
        believed value or the last merge read already fed an operation."""
        believed = state.registered_reads.get(key)
        if believed is None:
            return False
        # The operand covers the whole guarded-op instance: every merge
        # read of the key since the last write fed either the guard or the
        # operation itself, and under the declaration both share the
        # operand.  An empty group means a write without a fresh read
        # (a second op reusing one read) — not the declared shape.
        group: List[ReadRecord] = []
        for rec in reversed(state.read_log):
            if rec.key != key or rec.merge_spec is None:
                continue
            if rec.merge_operand is not None:
                break
            group.append(rec)
        if not group:
            return False
        delta = (value - believed) % WORD_MOD
        operand = (-delta) % WORD_MOD if spec.op is MergeOp.SUB else delta
        recheck = False
        for rec in group:
            rec.merge_operand = operand
            rec.merge_attached_at = len(state.read_log)
            recheck = recheck or rec.merge_recheck
        state.w_delta[key] = (state.w_delta.get(key, 0) + delta) % WORD_MOD
        state.registered_reads[key] = value
        if recheck:
            # An abort was deferred while the operand was unknown; now that
            # the guard's operand exists, settle the verdict against the
            # live view.  An unresolvable view stays flagged for the
            # completion hook; a flipped verdict aborts once the generator
            # suspends (_process checks merge_self_abort).
            seq = self.sequences.get(key)
            view = (seq.current_read_view(state.index, self.snapshot.get(key))
                    if seq is not None else None)
            if view is not None:
                for rec in group:
                    if not rec.merge_recheck:
                        continue
                    if view[0] == rec.base or rec.tolerates(view[0]):
                        rec.merge_recheck = False
                    else:
                        state.merge_self_abort = key
                        break
        if self.recorder is not None:
            self.recorder.write(state.index, key, delta=delta,
                                attempt=state.attempts)
        return True

    def _on_increment(self, state: _TxState, event: StorageIncrement) -> None:
        key = event.key
        if self.recorder is not None:
            self.recorder.write(state.index, key, delta=event.delta,
                                attempt=state.attempts)
        if key in state.w_abs:
            state.w_abs[key] = (state.w_abs[key] + event.delta) % WORD_MOD
        elif self.ex.enable_commutative:
            state.w_delta[key] = (state.w_delta.get(key, 0) + event.delta) % WORD_MOD
        else:
            base, _writer = self._registered_read(state, key)
            state.registered_reads[key] = base
            state.w_abs[key] = (base + event.delta) % WORD_MOD

    # ------------------------------------------------------------------
    # Early write visibility (Algorithm 2)
    # ------------------------------------------------------------------

    def _on_release_point(self, state: _TxState, event: Watchpoint) -> None:
        if not self.ex.enable_early_write:
            return
        bound = self._contract_info(state.tx.to)[3].get(event.pc)
        released = self.ex.release_gas_check(state.csag, event, bound)
        if self.obs is not None:
            self.obs.release_point(self.loop.now, state.index, event.pc,
                                   released, gas_remaining=event.gas_remaining)
        if not released:
            return  # might still fail past this point: do not release
        # From here on every buffered or future write whose key sees no
        # further predicted write is published as soon as it exists
        # (Algorithm 1 line 15 checks AfterReleasePoint after every op).
        state.release_mode = True
        self._flush_released(state, event.gas_used)

    def _flush_released(self, state: _TxState, gas_now: int) -> None:
        future_writes = {
            access.key
            for access in state.csag.accesses
            if access.kind == "write" and access.gas_offset > gas_now
        }
        for key, value in list(state.w_abs.items()):
            if key in future_writes:
                continue
            if state.published.get(key) != ("abs", value):
                self._publish(state, key, "abs", value)
        for key, delta in list(state.w_delta.items()):
            if key in future_writes:
                continue
            if state.published.get(key) != ("delta", delta):
                self._publish(state, key, "delta", delta)

    def _maybe_publish_now(self, state: _TxState, key: StateKey, gas_now: int) -> None:
        """Publish one just-performed write immediately when running past a
        release point and no later write to the key is predicted."""
        if not state.release_mode:
            return
        for access in state.csag.accesses:
            if access.kind == "write" and access.key == key and access.gas_offset > gas_now:
                return
        if key in state.w_abs:
            if state.published.get(key) != ("abs", state.w_abs[key]):
                self._publish(state, key, "abs", state.w_abs[key])
        elif key in state.w_delta:
            if state.published.get(key) != ("delta", state.w_delta[key]):
                self._publish(state, key, "delta", state.w_delta[key])

    def _merge_deferred_invalid(self, state: _TxState) -> Optional[StateKey]:
        """Settle any merge records whose abort was deferred while their
        operand was unknown; returns the first key that fails (outcome drift
        with an operand, strict drift without, or a still-unresolvable
        view) or None when the attempt may commit."""
        for rec in state.read_log:
            if not rec.merge_recheck:
                continue
            rec.merge_recheck = False
            seq = self.sequences.get(rec.key)
            view = (seq.current_read_view(state.index, self.snapshot.get(rec.key))
                    if seq is not None else None)
            if view is None:
                return rec.key
            if view[0] == rec.base:
                continue
            if not rec.tolerates(view[0]):
                return rec.key
        return None

    def _may_skip_abort(self, victim: int, key: StateKey) -> bool:
        """Outcome-stable abort tolerance (the merge algebra's payoff).

        When a late-arriving version of a declared merge key would abort a
        reader, re-evaluate every guard that reader ran on the key against
        the drifted base: if all verdicts are unchanged the reader's
        behaviour is byte-identical (the value feeds nothing else under the
        declaration), so the abort is skipped outright — no re-execution,
        no attempt bump.  Any unfinished earlier writer (view is None) or
        operand-less record falls back to the normal abort path.
        """
        if self.merges is None:
            return False
        spec = self.merges.lookup(key)
        if spec is None or not spec.op.delta_encodable:
            return False
        state = self.states[victim]
        records = [r for r in state.read_log if r.key == key and r.registered]
        if not records:
            return False
        seq = self.sequences.get(key)
        if seq is None:
            return False
        running = state.status is Status.RUNNING
        view = seq.current_read_view(victim, self.snapshot.get(key))
        deferred: List[ReadRecord] = []
        for rec in records:
            if rec.merge_operand is None:
                if running:
                    # The paired write hasn't happened yet, so the operand
                    # is unknown; defer the verdict check to the write's
                    # attach hook (or the completion hook).
                    deferred.append(rec)
                    continue
                return False
            if view is None:
                return False
            if view[0] != rec.base and not rec.tolerates(view[0]):
                return False
        for rec in deferred:
            rec.merge_recheck = True
        self.merge_tolerated += 1
        if self.obs is not None:
            self.obs.merge_tolerated(self.loop.now, victim, key)
        return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(self, state: _TxState, result: TxResult) -> None:
        state.pending_entry = None
        if self.merges is not None:
            stale = self._merge_deferred_invalid(state)
            if stale is not None:
                # A deferred merge recheck never settled (or settled stale):
                # this attempt must not commit.  Abort it like any other
                # conflict; the generator is already exhausted.
                self._abort(state.index, stale)
                return
        self.pool.release(state.thread, self.loop.now)
        state.thread = None
        if state.meter is not None:
            self.per_tx[state.index].instructions_executed += state.meter.steps_executed
            state.meter = None
        self._finish_attempt(state, result, state.w_abs, state.w_delta)
        self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Abort (Algorithm 4)
    # ------------------------------------------------------------------

    def _unwind(self, state: _TxState, running: bool) -> None:
        """Stop the event-stepped attempt, then salvage what a checkpoint
        allows: retract only the writes published after it and park the
        transaction to resume from there; else restart from scratch."""
        if running:
            if state.pending_entry is not None:
                self.loop.cancel(state.pending_entry)
                state.pending_entry = None
            if state.generator is not None:
                state.generator.close()
                state.generator = None
            if state.meter is not None:
                self.per_tx[state.index].instructions_executed += state.meter.steps_executed
                state.meter = None
            self.pool.release(state.thread, self.loop.now)
            state.thread = None
        # Aborted again while parked for a resume: the plan below is
        # recomputed against the (already truncated) log, so just drop the
        # stale one.
        state.resume_from = None

        plan = None
        if self.ex.enable_checkpoint_resume and state.checkpoints:
            plan = self._plan_resume(state)
        if plan is not None:
            # If the suffix retraction's cascade came back to bite us, or
            # shifted the kept prefix, fall back to retracting everything.
            self._retract_published(state, keep=plan.checkpoint.published)
            if state.abort_reentered or self._prefix_invalid(state, plan):
                plan = None
        if plan is not None:
            self._arm_resume(state, plan)
        else:
            self._restart(state)

    # ------------------------------------------------------------------
    # Incremental re-execution: validation, revalidation, resume
    # ------------------------------------------------------------------

    def _plan_resume(self, state: _TxState) -> Optional[_ResumePlan]:
        """Find the newest checkpoint at or before the first invalidated
        read; everything up to it is salvageable."""
        first_invalid, _ = self._validate_reads(state, len(state.read_log))
        j = first_invalid if first_invalid is not None else len(state.read_log)
        usable = [ck for ck in state.checkpoints if ck.read_index <= j]
        if not usable:
            return None
        return _ResumePlan(checkpoint=usable[-1], first_invalid=j)

    def _prefix_invalid(self, state: _TxState, plan: _ResumePlan) -> bool:
        first_invalid, versions = self._validate_reads(
            state, plan.checkpoint.read_index)
        if first_invalid is not None:
            return True
        plan.prefix_versions = versions
        return False

    def _arm_resume(self, state: _TxState, plan: _ResumePlan) -> None:
        """Park the transaction with a restored checkpoint image; the next
        _start resumes the VM instead of re-executing from scratch."""
        ck = plan.checkpoint
        # Reads that exist only in the discarded suffix lose their recorded
        # dependency; keys also read in the kept prefix keep their entry
        # (the prefix re-record at start refreshes its version).
        prefix_keys = {r.key for r in state.read_log[: ck.read_index]
                       if r.registered}
        self._reset_reads(state.index, {
            rec.key for rec in state.read_log[ck.read_index:]
            if rec.registered and rec.key not in prefix_keys
        })
        del state.read_log[ck.read_index:]
        for rec in state.read_log:
            if rec.merge_operand is not None and rec.merge_attached_at > ck.read_index:
                rec.merge_operand = None
        state.checkpoints = [c for c in state.checkpoints
                             if c.read_index <= ck.read_index]
        # Restore the driver-side attempt image; the VM side is rebuilt by
        # resume_transaction_program when the transaction next starts.
        state.w_abs = dict(ck.w_abs)
        state.w_delta = dict(ck.w_delta)
        state.pending_blind = dict(ck.pending_blind)
        state.registered_reads = dict(ck.registered_reads)
        state.frame_stack = [(dict(a), dict(d), dict(r))
                             for a, d, r in ck.frame_stack]
        state.release_mode = ck.release_mode
        state.speculative_reads = ck.speculative_reads
        state.generator = None
        state.meter = None
        state.pending_entry = None
        state.resume_from = plan
