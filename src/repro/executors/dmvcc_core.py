"""The DMVCC protocol core: Algorithms 1-4 stated once, without a clock.

Everything the protocol *decides* lives here: C-SAG seeding of the access
sequences, lock grants and ``Q_ready``, version publication with its wake
and abort sets, skip-marking of writes that never happened, retraction
cascades, abort with the revalidation repair, the lost-wake-up rescue pass
and the assembly of the block's result.  It owns the
:class:`AccessSequenceSet`, :class:`LockTable`, :class:`ReadyQueue`,
per-transaction metrics and ``ever_written``.

What a *driver* decides is who executes a transaction and when its reads
are answered.  ``executors.dmvcc._BlockRun`` steps transactions event by
event on the gas clock (reads resolve as they happen, writes may publish
at release points, aborts may resume from a checkpoint);
``substrate.coordinator._DMVCCRealRun`` ships a transaction with a read
view to a worker pool, lets it run to completion and validates the
returned read log before committing it.  A driver supplies the clock
(:meth:`DMVCCCore.now`) and overrides at most three hooks:

* :meth:`DMVCCCore._on_ready` — a transaction joined ``Q_ready``;
* :meth:`DMVCCCore._may_skip_abort` — may a reader survive a version
  change it would normally abort on (declared-merge tolerance);
* :meth:`DMVCCCore._unwind` — stop the running attempt and take back
  what it made visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.csag import AccessType, CSAG, CSAGBuilder
from ..core.errors import SchedulingError
from ..core.types import Address, StateKey
from ..core.words import WORD_MOD
from ..evm.environment import BlockContext
from ..scheduling.access_sequence import AccessSequence, AccessSequenceSet
from ..scheduling.locks import LockTable, ReadyQueue
from ..sim.metrics import TxMetrics
from .base import BlockExecution, Receipt
from .txprogram import TxResult


class Status(Enum):
    WAITING = "waiting"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


@dataclass
class ReadRecord:
    """One resolved read of the current attempt, in program order.

    The log is what makes aborts cheap: revalidation re-resolves every
    record against the live access sequences, and resume finds the first
    record whose resolution changed.  ``base`` is the value the resolution
    produced (before any own-delta fold), which is exactly what a
    re-resolution must reproduce for the read to still be valid.

    Blind increment reads are logged for completeness but are always valid:
    the static increment-site analysis guarantees their value feeds only the
    paired ``+=`` (the driver stores the delta, not the absolute), so no
    later version change can invalidate them.

    Merge-declared reads (``merge_spec`` set) sit in between: the value
    feeds only the declared bounds guard plus the declared operation, so a
    base drift is tolerable as long as the guard's *verdict* is unchanged.
    ``merge_operand`` is the operand of the operation the read fed (filled
    when the paired write arrives; None means the guard failed or never
    ran, degrading the record to strict value equality), and ``merge_own``
    is the transaction's own pending delta at read time, needed to rebuild
    the observed value from a re-resolved base.
    """

    key: StateKey
    base: int
    version_from: int
    registered: bool
    blind: bool = False
    from_own_delta: bool = False
    consumed_as_delta: bool = False
    speculative: bool = False
    merge_spec: Optional[object] = None
    merge_operand: Optional[int] = None
    merge_own: int = 0
    # Read-log length when the operand was attached: operands attached by
    # writes past a resume checkpoint are cleared on resume (the write
    # re-executes and re-derives its delta).
    merge_attached_at: int = 0
    # An abort was skipped while this record had no operand yet (the
    # transaction was still running): the paired write and the completion
    # hook must re-validate it against the live view.
    merge_recheck: bool = False

    def tolerates(self, new_base: int) -> bool:
        """Whether a merge record tolerates its base drifting to
        ``new_base``: the declared guard must reach the same verdict on the
        observed value it would now see.  Records without an operand (the
        guard failed, or the op never ran) demand exact equality."""
        if self.merge_spec is None or self.merge_operand is None:
            return False
        old_value = (self.base + self.merge_own) % WORD_MOD
        new_value = (new_base + self.merge_own) % WORD_MOD
        return (self.merge_spec.outcome(old_value, self.merge_operand)
                == self.merge_spec.outcome(new_value, self.merge_operand))


@dataclass
class TxState:
    """Per-transaction protocol state; drivers extend it with whatever
    their execution model keeps per attempt."""

    index: int
    tx: object
    csag: CSAG
    needed_keys: Set[StateKey]
    status: Status = Status.WAITING
    attempts: int = 0
    result: Optional[TxResult] = None
    # What the current attempt made visible and consumed:
    published: Dict[StateKey, Tuple[str, int]] = field(default_factory=dict)
    registered_reads: Dict[StateKey, int] = field(default_factory=dict)
    read_log: List[ReadRecord] = field(default_factory=list)
    aborting: bool = False        # guards re-entrant abort cascades
    abort_reentered: bool = False

    def reset_attempt(self) -> None:
        self.published = {}
        self.registered_reads = {}
        self.read_log = []


class DMVCCCore:
    """One block's DMVCC bookkeeping; see the module docstring."""

    state_class = TxState

    def __init__(self, executor, txs, snapshot, code_resolver, block, csags) -> None:
        self.ex = executor
        self.txs = txs
        self.snapshot = snapshot
        self.resolve_code = code_resolver
        self.block = block if block is not None else BlockContext()
        self.builder = CSAGBuilder(code_resolver, executor._psag_cache, self.block,
                                   executor._csag_cache)
        if csags is None:
            csags = [self.builder.build(tx, snapshot) for tx in txs]
        self.csags = csags
        self.obs = executor.obs
        self.recorder = executor.recorder
        self.sequences = AccessSequenceSet(obs=self.obs, clock=self.now)
        self.locks = LockTable(obs=self.obs, clock=self.now)
        self.queue = ReadyQueue()
        self.states: List[TxState] = []
        self.per_tx = [TxMetrics(index=i) for i in range(len(txs))]
        # Every key a transaction has ever published to, across attempts:
        # needed at completion to skip-mark writes that a *re-execution's*
        # different path no longer performs (predictions alone cannot know
        # about on-the-fly inserted entries).
        self.ever_written: List[Set[StateKey]] = [set() for _ in txs]
        self.rescues = 0
        self._rescue_rounds = 0
        # Declared-operation merge registry (None ≡ paper semantics).  The
        # noCW ablation disables it together with blind increments.
        merges = executor.merges if executor.enable_commutative else None
        self.merges = merges if merges else None
        # Per-contract static analysis lookups.
        self._contracts: Dict[Address, Tuple] = {}

    # ------------------------------------------------------------------
    # The driver's side: a clock and three hooks
    # ------------------------------------------------------------------

    def now(self) -> float:
        """The driver's clock (simulated gas time or wall seconds)."""
        raise NotImplementedError

    def _on_ready(self) -> None:
        """A transaction joined ``Q_ready``."""

    def _may_skip_abort(self, victim: int, key: StateKey) -> bool:
        """May ``victim`` keep its attempt although a version of ``key`` it
        read changed?  Only declared-merge tolerance ever says yes."""
        return False

    def _unwind(self, state: TxState, running: bool) -> None:
        """Stop ``state``'s attempt (``running`` tells whether one is in
        flight) and take back what it made visible."""
        self._restart(state)

    # ------------------------------------------------------------------
    # Setup: Algorithm 1, pre-execution part
    # ------------------------------------------------------------------

    def _declared(self, access_type: AccessType) -> AccessType:
        if access_type is AccessType.COMMUTATIVE and not self.ex.enable_commutative:
            return AccessType.READ_WRITE
        return access_type

    def _setup(self, threads: int) -> None:
        if self.obs is not None:
            self.obs.block_start(0.0, scheduler=self.ex.name, threads=threads,
                                 tx_count=len(self.txs))
        for i, (tx, csag) in enumerate(zip(self.txs, self.csags)):
            needed: Set[StateKey] = set()
            per_key = dict(csag.per_key)
            if not csag.predicted_success and not csag.missing:
                # The pre-execution took the failure branch; if earlier
                # transactions flip the branch, the success path's accesses
                # would all be surprises.  Seed them conservatively (θ) from
                # the symbolically-resolved static sets instead.
                for key in csag.static_write_keys:
                    if key not in per_key:
                        per_key[key] = AccessType.READ_WRITE
                for key in csag.static_read_keys:
                    if key not in per_key:
                        per_key[key] = AccessType.READ
            for key, access_type in per_key.items():
                declared = self._declared(access_type)
                self.sequences.sequence(key).insert_predicted(i, declared)
                if declared in (AccessType.READ, AccessType.READ_WRITE):
                    if (self.merges is not None
                            and self.merges.lookup(key) is not None):
                        # Merge-declared keys never gate the start: their
                        # reads are answered from any available fold and
                        # validated by guard outcome, not exact value.
                        continue
                    needed.add(key)
            self.states.append(
                self.state_class(index=i, tx=tx, csag=csag, needed_keys=needed))
            self.locks.register(i, needed)
        # Initial grants: items readable straight from the snapshot.
        for state in self.states:
            self._requeue(state)

    def _contract_info(self, address: Address):
        """(blind read pcs, increment write pc -> read pc, release pcs,
        release pc -> static gas bound) of the contract at ``address``."""
        info = self._contracts.get(address)
        if info is None:
            code = self.resolve_code(address)
            if code:
                psag = self.builder.psag_for(code)
                increments = dict(psag.analysis.increment_sites)
                info = (
                    frozenset(increments.values()),
                    increments,
                    frozenset(psag.release_pcs()),
                    {rp.pc: rp.gas_bound for rp in psag.release.release_points},
                )
            else:
                info = (frozenset(), {}, frozenset(), {})
            self._contracts[address] = info
        return info

    # ------------------------------------------------------------------
    # Q_ready
    # ------------------------------------------------------------------

    def _make_ready(self, state: TxState, stalled: bool = False,
                    key: Optional[StateKey] = None, granted_by: int = -1) -> None:
        """Move ``state`` to ``Q_ready``.  ``stalled`` says it had been
        waiting for a version; ``key`` / ``granted_by`` then name the
        publication that released it (unknown when rescued)."""
        state.status = Status.READY
        self.queue.push(state.index)
        if self.obs is not None:
            now = self.now()
            if stalled:
                self.obs.version_wait_end(now, state.index, key=key,
                                          granted_by=granted_by)
            self.obs.tx_ready(now, state.index, attempt=state.attempts + 1)
        self._on_ready()

    def _requeue(self, state: TxState) -> None:
        """Re-derive ``state``'s locks from the live sequences and queue it,
        or leave it WAITING on the writers it still needs."""
        index = state.index
        self.locks.release_all(index)
        if self.locks.refresh(index, self.sequences):
            self._make_ready(state)
        elif self.obs is not None:
            keys, blockers = self._wait_info(index)
            self.obs.version_wait_begin(self.now(), index, keys=keys,
                                        blockers=blockers)

    def _wait_info(self, index: int):
        """The unresolvable keys (and their unfinished writers) stalling
        ``index`` — the payload of a VersionWaitBegin event."""
        missing = sorted(self.locks.state(index).missing())
        blockers: Set[int] = set()
        for key in missing:
            seq = self.sequences.get(key)
            if seq is not None:
                resolution = seq.resolve_read(index)
                if not resolution.ready:
                    blockers.update(resolution.blockers)
        return tuple(missing), tuple(sorted(blockers))

    def _all_done(self) -> bool:
        return all(s.status is Status.DONE for s in self.states)

    def _rescue(self) -> None:
        """Nothing runs, nothing is ready, yet the block is unfinished:
        recover from a lost wake-up by queueing every stalled transaction
        (counted; tests pin 0), or report the deadlock."""
        self._rescue_rounds += 1
        waiting = [s for s in self.states if s.status is Status.WAITING]
        if not waiting or self._rescue_rounds > 3 * len(self.states) + 10:
            stuck = [s.index for s in self.states if s.status is not Status.DONE]
            raise SchedulingError(f"DMVCC deadlock; stuck transactions: {stuck}")
        for state in waiting:
            self.rescues += 1
            self._make_ready(state, stalled=True)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @staticmethod
    def _resolve(seq: AccessSequence, index: int):
        """The version ``index`` reads from ``seq`` now: the proper one when
        every earlier write finished, else the best available (an access
        the analysis missed; the abort protocol covers staleness).  Returns
        (resolution, speculative)."""
        resolution = seq.resolve_read(index)
        if resolution.ready:
            return resolution, False
        return seq.best_available_read(index), True

    def _reset_reads(self, index: int, keys) -> None:
        """Forget the read dependencies ``index`` recorded on ``keys``, so
        future writes don't abort it for versions it no longer relies on."""
        for key in keys:
            seq = self.sequences.get(key)
            if seq is not None:
                entry = seq.entry(index)
                if entry is not None:
                    entry.reset_read()

    # ------------------------------------------------------------------
    # Write versioning (Algorithm 3) and its wake / abort sets
    # ------------------------------------------------------------------

    @staticmethod
    def _version_write(seq: AccessSequence, index: int, kind: str, value: int):
        if kind == "abs":
            return seq.version_write(index, value=value)
        return seq.version_write(index, delta=value)

    def _publish(self, state: TxState, key: StateKey, kind: str, value: int) -> None:
        seq = self.sequences.sequence(key)
        if self.recorder is not None:
            # Completion flips status to DONE before publishing leftovers, so
            # RUNNING here means mid-transaction (release-point) visibility.
            self.recorder.publish(state.index, key, kind, value,
                                  early=state.status is Status.RUNNING)
        allowed, aborted = self._version_write(seq, state.index, kind, value)
        state.published[key] = (kind, value)
        self.ever_written[state.index].add(key)
        self._handle_wake_and_abort(key, allowed, aborted, writer=state.index)

    def _handle_wake_and_abort(
        self, key: StateKey, allowed: List[int], aborted: List[int],
        writer: int = -1,
    ) -> None:
        for victim in aborted:
            if not self._may_skip_abort(victim, key):
                self._abort(victim, key, writer=writer)
        seq = self.sequences.sequence(key)
        for index in sorted(set(allowed) | set(aborted)):
            target = self.states[index]
            if target.status is not Status.WAITING:
                self.locks.grant(index, key)
            elif seq.resolve_read(index).ready:
                became_ready = self.locks.grant(index, key)
                if became_ready or self.locks.is_ready(index):
                    self._make_ready(target, stalled=True, key=key,
                                     granted_by=writer)

    def _retract_published(self, state: TxState, keep=None) -> None:
        """Take back the versions ``state`` published, aborting whoever
        read them (cascades).  ``keep`` — what a resume checkpoint had
        already published — limits this to the suffix after it: an entry
        unchanged since stays in place, and a key the kept prefix had
        published with an older value gets that value reinstated (retract,
        then republish), so prefix readers can revalidate against the
        identical value instead of cascading into full restarts."""
        keep = keep or {}
        published = list(state.published.items())
        state.published = dict(keep)
        for key, current in published:
            kept = keep.get(key)
            if kept == current:
                continue
            seq = self.sequences.get(key)
            if seq is None:
                continue
            victims = seq.retract(state.index)
            if self.recorder is not None:
                self.recorder.retract(
                    state.index, key,
                    tuple(v for v in victims if v != state.index),
                )
            if kept is not None:
                if self.recorder is not None:
                    self.recorder.publish(state.index, key, *kept, early=True)
                allowed, aborted = self._version_write(seq, state.index, *kept)
            for victim in victims:
                if victim != state.index and not self._may_skip_abort(victim, key):
                    self._abort(victim, key, writer=state.index)
            if kept is not None:
                self._handle_wake_and_abort(key, allowed, aborted,
                                            writer=state.index)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _finish_attempt(self, state: TxState, result: TxResult,
                        w_abs: Dict[StateKey, int],
                        w_delta: Dict[StateKey, int]) -> None:
        """The attempt ran to its end and its reads hold: its result stands
        (until a later abort says otherwise)."""
        now = self.now()
        state.status = Status.DONE
        state.result = result
        per = self.per_tx[state.index]
        per.end_time = now
        per.gas_used = result.gas_used
        per.succeeded = result.success
        per.attempts = state.attempts
        per.instructions_final = result.steps
        if result.success:
            for key, value in w_abs.items():
                if state.published.get(key) != ("abs", value):
                    self._publish(state, key, "abs", value)
            for key, delta in w_delta.items():
                if state.published.get(key) != ("delta", delta):
                    self._publish(state, key, "delta", delta)
        else:
            self._retract_published(state)
        if self.obs is not None:
            self.obs.tx_end(now, state.index, attempt=state.attempts,
                            success=result.success, gas_used=result.gas_used)
        if self.recorder is not None:
            self.recorder.complete(state.index, attempt=state.attempts,
                                   success=result.success,
                                   gas_used=result.gas_used)
        # Predicted writes that never materialised are marked skipped so
        # transactions waiting on them unblock (divergent path / failure).
        # The same applies to keys this transaction published in *earlier
        # attempts*: an entry inserted on the fly back then may now be a
        # write the current path never performs.
        pending_write_keys = set(self.ever_written[state.index])
        for key, access_type in state.csag.per_key.items():
            if self._declared(access_type) is not AccessType.READ:
                pending_write_keys.add(key)
        for key in pending_write_keys:
            if key in state.published:
                continue
            seq = self.sequences.sequence(key)
            entry = seq.entry(state.index)
            if entry is not None and entry.has_write_part and not entry.write_finished:
                allowed, _ = seq.version_write(state.index, skipped=True)
                self._handle_wake_and_abort(key, allowed, [], writer=state.index)

    def _result(self, threads: int, end: float, makespan: float = 0.0) -> BlockExecution:
        if self.obs is not None:
            self.obs.block_end(end, makespan=makespan)
        receipts = [
            Receipt(index=s.index, result=s.result, attempts=max(s.attempts, 1))
            for s in self.states
        ]
        writes = self.sequences.final_writes(self.snapshot.get)
        metrics = self.ex._base_metrics(threads, receipts)
        metrics.makespan = makespan
        metrics.per_tx = self.per_tx
        metrics.rescues = self.rescues
        metrics.replayed_instructions = sum(t.replayed_instructions for t in self.per_tx)
        metrics.instructions_skipped = sum(t.instructions_skipped for t in self.per_tx)
        metrics.resumes = sum(t.resumes for t in self.per_tx)
        metrics.revalidation_hits = sum(t.revalidation_hits for t in self.per_tx)
        return BlockExecution(writes=writes, receipts=receipts, metrics=metrics)

    # ------------------------------------------------------------------
    # Abort (Algorithm 4)
    # ------------------------------------------------------------------

    def _abort(self, index: int, trigger_key: Optional[StateKey],
               writer: int = -1) -> None:
        state = self.states[index]
        if state.aborting:
            # A retraction cascade circled back to the transaction being
            # aborted.  Flag it — a driver salvaging part of the attempt
            # checks the flag and degrades to a full restart — and let the
            # outer call finish.
            state.abort_reentered = True
            return
        self._note_abort(state, trigger_key, writer)

        # Revalidation fast path: a completed successful attempt whose whole
        # read log still resolves to the same values remains serializable —
        # reinstate its result as a fresh attempt with zero re-execution.
        if (
            self.ex.enable_revalidation
            and state.status is Status.DONE
            and state.result is not None
            and state.result.success
            and self._try_revalidate(state)
        ):
            return

        state.aborting = True
        state.abort_reentered = False
        try:
            running = state.status is Status.RUNNING
            if state.status is Status.READY:
                self.queue.remove(index)
            elif state.status is Status.DONE:
                state.result = None
            # (WAITING: nothing consumed yet in the *current* attempt, but a
            # previous attempt's reads may still be recorded — unwind too.)
            state.status = Status.WAITING
            self.per_tx[index].aborted_times += 1
            self._unwind(state, running)
        finally:
            state.aborting = False
        self._requeue(state)

    def _note_abort(self, state: TxState, key: Optional[StateKey],
                    writer: int = -1) -> None:
        attempt = max(state.attempts, 1)
        if self.recorder is not None:
            self.recorder.abort(state.index, attempt=attempt, key=key)
        if self.obs is not None:
            self.obs.tx_abort(self.now(), state.index, attempt=attempt,
                              key=key, writer=writer)

    def _restart(self, state: TxState) -> None:
        """Full restart: retract whatever this transaction made visible
        (cascades) and clear its recorded reads so future writes don't
        re-abort a transaction already re-executing."""
        self._retract_published(state)
        self._reset_reads(state.index, state.registered_reads)
        state.reset_attempt()

    # ------------------------------------------------------------------
    # Read-log validation and the revalidation repair
    # ------------------------------------------------------------------

    def _validate_reads(
        self, state: TxState, limit: int
    ) -> Tuple[Optional[int], List[int]]:
        """Re-resolve the first ``limit`` read-log records against the live
        access sequences.  Returns the index of the first record whose value
        changed (or None when every record still holds) plus the re-resolved
        version for each record of the valid prefix."""
        versions: List[int] = []
        for i, rec in enumerate(state.read_log[:limit]):
            if rec.blind:
                # Blind increment reads are value-insensitive (ReadRecord):
                # the driver publishes the delta, not the absolute.
                versions.append(rec.version_from)
                continue
            seq = self.sequences.get(rec.key)
            if seq is None:
                return i, versions
            view = seq.current_read_view(state.index, self.snapshot.get(rec.key))
            if view is None:
                return i, versions
            if view[0] != rec.base and not rec.tolerates(view[0]):
                return i, versions
            versions.append(view[1])
        return None, versions

    def _rerecord_reads(
        self, state: TxState, records: List[ReadRecord], versions: List[int]
    ) -> None:
        """Re-anchor the recorded read dependencies to the versions they
        resolve to *now* (record_read keeps the oldest version, so the stale
        registration must be reset first)."""
        self._reset_reads(state.index, {r.key for r in records if r.registered})
        for rec, version in zip(records, versions):
            if rec.registered:
                self.sequences.sequence(rec.key).record_read(state.index, version)
                rec.version_from = version

    def _reemit_reads(
        self, state: TxState, records: List[ReadRecord], versions: List[int]
    ) -> None:
        """Emit the kept reads into the trace under the new attempt number so
        the serializability oracle sees the attempt's true dependencies."""
        if self.recorder is None:
            return
        for rec, version in zip(records, versions):
            if rec.blind:
                self.recorder.read(state.index, rec.key, version, rec.base,
                                   attempt=state.attempts, blind=True)
            else:
                early = (version >= 0
                         and self.states[version].status is not Status.DONE)
                self.recorder.read(state.index, rec.key, version, rec.base,
                                   attempt=state.attempts, early=early,
                                   speculative=rec.speculative)

    def _try_revalidate(self, state: TxState) -> bool:
        first_invalid, versions = self._validate_reads(state, len(state.read_log))
        if first_invalid is not None:
            return False
        state.attempts += 1
        per = self.per_tx[state.index]
        per.attempts = state.attempts
        per.aborted_times += 1
        per.revalidation_hits += 1
        skipped = state.result.steps
        per.instructions_skipped += skipped
        self._rerecord_reads(state, state.read_log, versions)
        if self.obs is not None:
            self.obs.revalidation_hit(self.now(), state.index,
                                      attempt=state.attempts,
                                      instructions_skipped=skipped)
        self._reemit_reads(state, state.read_log, versions)
        if self.recorder is not None:
            self.recorder.complete(state.index, attempt=state.attempts,
                                   success=True,
                                   gas_used=state.result.gas_used)
        return True
