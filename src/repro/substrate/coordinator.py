"""Real-parallelism coordinators: the executors' protocols over worker pools.

The discrete-event executors interleave scheduling and execution on one
simulated clock; a real backend cannot — a worker process runs a
transaction *to completion* against a shipped read view and only then
reports back.  Each coordinator here drives the *same* protocol object the
simulator drives (the DMVCC core, the fork-join gate, the version store)
in that shape, so the committed results are byte-identical to the sim
backend: every scheduler guarantees deterministic serializability, and
serializable outcomes are unique given the block order.

* **DMVCC** — access sequences are seeded from the C-SAGs exactly as in
  the simulator; a transaction dispatches when its read locks grant, its
  view is resolved from the live sequences, and the returned read log is
  **validated at commit** against those sequences (the moral equivalent of
  the PR-3 revalidation fast path).  Valid attempts complete through
  :class:`~repro.executors.dmvcc_core.DMVCCCore` — wake/abort cascades,
  skip-marking, retraction, revalidation are the simulator's own code.
  Early-write visibility is a non-feature
  here: workers cannot publish mid-flight, so writes land at completion
  (results are unaffected; only overlap shape differs).
* **OCC** — deterministic execute/validate rounds: every transaction in
  the round executes against the versions committed in *previous* rounds
  (writers below its index), publishes at the round barrier, and
  re-executes while stale.  Arrival order cannot influence results.
* **DAG / schedule replay** — worker-pool lanes of the fork-join gate
  (:class:`~repro.executors.dag.ForkJoin`): a transaction dispatches when
  its predecessors completed, so its dispatch-time view already holds
  every value its reads can legally observe.
* **serial** — inherently in-process; the executor's own path runs and is
  merely stamped with the backend name.

Reads the analysis missed surface as ``need`` outcomes (the view did not
cover them); the coordinator augments the per-transaction key set and
re-dispatches — counted as ``view_misses``, not aborts.  Worker crashes
surface as ``WorkerCrashed`` obs events; their in-flight transactions are
re-dispatched.  Both loops, with the stale-ticket drop and the worker-error
raise, are :meth:`_Dispatcher.pump`; a coordinator supplies only what to do
with a good outcome and how to dispatch an index again.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..analysis.csag import AccessType, _static_key_sets
from ..core.errors import SchedulingError
from ..core.types import Address, StateKey
from ..core.words import WORD_MOD
from ..executors.base import BlockExecution, Receipt, VersionStore
from ..executors.dag import ForkJoin
from ..executors.dmvcc_core import DMVCCCore, ReadRecord, Status, TxState
from ..evm.environment import BlockContext
from ..obs.events import UNKNOWN_WRITER
from ..sim.metrics import TxMetrics
from .pools import PoolEvent, WorkerPool
from .tasks import READ_BLIND, TxOutcome, TxTask


class _Dispatcher:
    """Ticketing, code shipping, view-miss learning and the pool-event pump
    over one pool, for one block."""

    def __init__(self, pool: WorkerPool, code_resolver, txs, block,
                 obs=None, clock: Callable[[], float] = lambda: 0.0) -> None:
        self.pool = pool
        self.resolve_code = code_resolver
        self.txs = txs
        self.block = block
        self.obs = obs
        self.clock = clock
        self.tickets = [0] * len(txs)
        self.extra_keys: List[Set[StateKey]] = [set() for _ in txs]
        self.sent_codes: List[Set[Address]] = [set() for _ in range(pool.size)]
        # Learned per-entry-contract callee set: once one transaction to a
        # contract discovers a foreign callee, every later task pre-ships it.
        self.callees: Dict[Address, Set[Address]] = {}
        self.view_misses = 0
        self.worker_crashes = 0

    def worker_for(self, index: int) -> int:
        return index % self.pool.size

    def _codes_for(self, worker: int, to: Address) -> Dict[Address, bytes]:
        needed = {to} | self.callees.get(to, set())
        fresh = needed - self.sent_codes[worker]
        if not fresh:
            return {}
        self.sent_codes[worker] |= fresh
        return {a: (self.resolve_code(a) or b"") for a in fresh}

    def view_keys(self, index: int, predicted: Set[StateKey]) -> Set[StateKey]:
        """``predicted`` widened by the balances a value transfer touches
        and by every key an earlier ``need`` outcome taught us."""
        return (predicted | _balance_keys(self.txs[index])
                | self.extra_keys[index])

    def dispatch(self, index: int, attempt: int, view: Dict[StateKey, int],
                 commutative: bool = False,
                 blind_pcs: frozenset = frozenset(),
                 increment_sites: Optional[Dict[int, int]] = None) -> None:
        self.tickets[index] += 1
        worker = self.worker_for(index)
        tx = self.txs[index]
        self.pool.submit(worker, TxTask(
            index=index, attempt=attempt, ticket=self.tickets[index],
            tx=tx, view=view, block=self.block, commutative=commutative,
            blind_pcs=blind_pcs,
            increment_sites=increment_sites or {},
            codes=self._codes_for(worker, tx.to),
        ))

    def invalidate(self, index: int) -> None:
        """Make any in-flight outcome for ``index`` stale."""
        self.tickets[index] += 1

    def pump(self, on_outcome: Callable[[TxOutcome], None],
             redispatch: Callable[[int], None],
             on_lost: Optional[Callable[[int], None]] = None) -> None:
        """Wait for the pool's next events and route them.

        A good outcome goes to ``on_outcome``.  Outcomes whose ticket was
        superseded are dropped.  A ``need`` outcome widens what the next
        view ships — missing keys for this transaction, missing codes for
        every transaction to the same contract — and the index is
        dispatched again.  A crashed worker's unanswered tasks go to
        ``on_lost`` (default: dispatch again); the respawned worker starts
        with an empty code cache.  A worker *error* is a bug and raises.
        """
        for event in self.pool.collect():
            if event.kind == "error":
                _raise_worker_error(event)
            if event.kind == "crash":
                self.worker_crashes += 1
                self.sent_codes[event.worker] = set()
                if self.obs is not None:
                    self.obs.worker_crashed(self.clock(), worker=event.worker,
                                            lost=len(event.lost))
                for task in event.lost:
                    if task.ticket == self.tickets[task.index]:
                        (on_lost or redispatch)(task.index)
                continue
            outcome = event.outcome
            if outcome.ticket != self.tickets[outcome.index]:
                continue
            if outcome.ok:
                on_outcome(outcome)
                continue
            for key in outcome.missing_keys:
                self.extra_keys[outcome.index].add(key)
                self.view_misses += 1
            for address in outcome.missing_codes:
                self.callees.setdefault(
                    self.txs[outcome.index].to, set()).add(address)
            redispatch(outcome.index)

    def stamp(self, metrics, wall: float) -> None:
        metrics.backend = self.pool.kind
        metrics.workers = self.pool.size
        metrics.wall_time = wall
        metrics.view_misses = self.view_misses
        metrics.worker_crashes = self.worker_crashes


def _raise_worker_error(event: PoolEvent) -> None:
    raise SchedulingError(
        f"substrate worker {event.worker} failed: {event.message}"
    )


def _balance_keys(tx) -> Set[StateKey]:
    if tx.value > 0:
        return {StateKey.balance(tx.sender), StateKey.balance(tx.to)}
    return set()


def _lanes(pool: WorkerPool, threads: int) -> int:
    """Logical concurrency: the caller's ``threads`` bounds how many
    transactions may be in flight at once, independent of the pool's
    physical worker count (a pinned pool may be larger or smaller)."""
    return max(1, threads) if threads else pool.size


# ---------------------------------------------------------------------------
# DMVCC
# ---------------------------------------------------------------------------


class _DMVCCRealRun(DMVCCCore):
    """One DMVCC block over a real worker pool: the run-to-completion
    driver of the core.

    A worker cannot be asked anything mid-flight, so this driver owns what
    that forces: resolving a read *view* at dispatch, validating the
    returned read log against the live sequences at commit, and
    re-dispatching what a crashed worker lost.  Merge registries never
    reach it (``DMVCCExecutor.execute_block`` keeps those blocks on the
    simulator), so no abort is ever skipped.
    """

    def __init__(self, executor, pool, txs, snapshot, code_resolver,
                 block, csags, threads: int = 0) -> None:
        self._t0 = perf_counter()
        super().__init__(executor, txs, snapshot, code_resolver, block, csags)
        self.pool = pool
        self.lanes = _lanes(pool, threads)
        self.dispatcher = _Dispatcher(pool, code_resolver, txs, self.block,
                                      self.obs, self.now)

    def now(self) -> float:
        return perf_counter() - self._t0

    def execute(self) -> BlockExecution:
        self._setup(self.lanes)
        while not self._all_done():
            dispatched = self._dispatch_ready()
            if self.pool.inflight_count == 0 and not dispatched:
                self._rescue()
                continue
            self.dispatcher.pump(self._on_outcome, self._send, self._on_lost)
        wall = self.now()
        execution = self._result(self.lanes, wall)
        self.dispatcher.stamp(execution.metrics, wall)
        return execution

    # -- dispatch ---------------------------------------------------------

    def _dispatch_ready(self) -> bool:
        dispatched = False
        running = sum(1 for s in self.states if s.status is Status.RUNNING)
        while running < self.lanes:
            index = self.queue.pop()
            if index is None:
                break
            state = self.states[index]
            state.status = Status.RUNNING
            state.attempts += 1
            now = self.now()
            if state.attempts == 1:
                self.per_tx[index].start_time = now
            if self.obs is not None:
                if state.attempts > 1:
                    self.obs.tx_reexecute(now, index, attempt=state.attempts)
                self.obs.tx_start(now, index, attempt=state.attempts,
                                  thread=self.dispatcher.worker_for(index))
            self._send(index)
            dispatched = True
            running += 1
        return dispatched

    def _send(self, index: int) -> None:
        """Ship ``index``'s current attempt with a view resolved now (also
        the same attempt again, with a widened view, after a ``need``)."""
        state = self.states[index]
        if state.status is not Status.RUNNING:
            return
        predicted = set(state.needed_keys) | state.csag.static_read_keys
        for key, access_type in state.csag.per_key.items():
            if self._declared(access_type) is AccessType.COMMUTATIVE:
                predicted.add(key)
        view: Dict[StateKey, int] = {}
        for key in self.dispatcher.view_keys(index, predicted):
            value = self.snapshot.get(key)
            seq = self.sequences.get(key)
            if seq is not None:
                value = self._resolve(seq, index)[0].resolve_with_snapshot(value)
            view[key] = value
        blind_pcs, increments = self._contract_info(state.tx.to)[:2]
        self.dispatcher.dispatch(
            index, state.attempts, view,
            commutative=self.ex.enable_commutative,
            blind_pcs=blind_pcs, increment_sites=increments,
        )

    # -- outcomes ---------------------------------------------------------

    def _on_outcome(self, outcome: TxOutcome) -> None:
        """Validate every versioned read of a returned attempt against the
        live sequences; commit it, or abort it on the first key whose view
        went stale in flight."""
        state = self.states[outcome.index]
        if state.status is not Status.RUNNING:
            return
        index = state.index
        records: List[ReadRecord] = []
        for key, base, kind in outcome.reads:
            if kind == READ_BLIND:
                records.append(ReadRecord(key, base, -1, registered=False,
                                          blind=True))
                continue
            seq = self.sequences.sequence(key)
            resolution, speculative = self._resolve(seq, index)
            if resolution.resolve_with_snapshot(self.snapshot.get(key)) != base:
                self._fail_attempt(state, key)
                return
            records.append(ReadRecord(key, base, resolution.version_from,
                                      registered=True, speculative=speculative))
        for rec in records:
            if rec.registered:
                self.sequences.sequence(rec.key).record_read(index, rec.version_from)
                state.registered_reads[rec.key] = rec.base
            if self.recorder is not None:
                self.recorder.read(index, rec.key, rec.version_from, rec.base,
                                   attempt=state.attempts, blind=rec.blind,
                                   speculative=rec.speculative)
        state.read_log = records
        self.per_tx[index].instructions_executed += outcome.result.steps
        self._finish_attempt(state, outcome.result, dict(outcome.writes_abs),
                             dict(outcome.writes_delta))

    # -- aborts -----------------------------------------------------------

    def _unwind(self, state: TxState, running: bool) -> None:
        if running:
            # The in-flight attempt cannot be recalled; outdate it.
            self.dispatcher.invalidate(state.index)
        self._restart(state)

    def _fail_attempt(self, state: TxState, key: Optional[StateKey]) -> None:
        """A dispatched attempt came to nothing before it could commit —
        its view went stale on ``key``, or it died with its worker."""
        self._note_abort(state, key, writer=UNKNOWN_WRITER)
        self.per_tx[state.index].aborted_times += 1
        state.status = Status.WAITING
        self._requeue(state)

    def _on_lost(self, index: int) -> None:
        state = self.states[index]
        if state.status is Status.RUNNING:
            self.dispatcher.invalidate(index)
            self._fail_attempt(state, None)


def run_dmvcc_real(executor, pool, txs, snapshot, code_resolver,
                   block=None, csags=None, threads: int = 0) -> BlockExecution:
    run = _DMVCCRealRun(executor, pool, txs, snapshot, code_resolver,
                        block, csags, threads=threads)
    return run.execute()


# ---------------------------------------------------------------------------
# OCC: deterministic execute/validate rounds
# ---------------------------------------------------------------------------


def run_occ_real(executor, pool, txs, snapshot, code_resolver,
                 block=None, threads: int = 0) -> BlockExecution:
    """Round-based OCC over real workers.

    Each round executes its stale transactions in *waves* of at most
    ``threads`` — the caller's logical concurrency, not the pool's
    physical worker count.  A wave executes against the versions
    committed so far (restricted to writers below each reader's index),
    publishes at the wave barrier, and the round ends with a block-order
    validation sweep that marks stale readers for the next round.  The
    wave structure — unlike the simulator's thread-timing visibility —
    is independent of worker arrival order, so process-backend OCC runs
    are deterministic; at ``threads=1`` it degenerates to serial
    execution in block order, which never aborts.
    """
    t0 = perf_counter()

    def now() -> float:
        return perf_counter() - t0

    lanes = _lanes(pool, threads)
    block = block if block is not None else BlockContext()
    count = len(txs)
    recorder = executor.recorder
    obs = executor.obs
    dispatcher = _Dispatcher(pool, code_resolver, txs, block, obs, now)
    # Versions committed at wave barriers.
    store = VersionStore(snapshot)

    # Seed first-dispatch views from the static P-SAG key resolution
    # (cheap: symbolic evaluation, no pre-execution).  OCC carries no
    # C-SAGs by design, but shipping the *predicted* key set up front
    # collapses the view-miss → re-dispatch discovery loop that otherwise
    # costs one worker round-trip per missing key cluster.
    known: List[Set[StateKey]] = [set() for _ in txs]
    seeded = 0
    for i, tx in enumerate(txs):
        code = code_resolver(tx.to)
        if code:
            reads, writes = _static_key_sets(
                tx, snapshot, executor.psag_cache.get(code), block)
            known[i] = reads | writes
            seeded += len(known[i] - _balance_keys(tx))
    results: List[Optional[object]] = [None] * count
    observed: List[Dict[StateKey, Tuple[int, int]]] = [{} for _ in range(count)]
    write_sets: List[Dict[StateKey, int]] = [{} for _ in range(count)]
    outcome_reads: List[Tuple] = [()] * count
    attempts = [0] * count
    per_tx = [TxMetrics(index=i) for i in range(count)]
    needs = list(range(count))
    pending: Set[int] = set()  # dispatched in this wave, not yet answered
    rounds = 0

    if obs is not None:
        obs.block_start(0.0, scheduler=executor.name, threads=lanes,
                        tx_count=count)
        for index in range(count):
            obs.tx_ready(0.0, index)

    def dispatch(index: int) -> None:
        meta = {key: store.read(key, index)
                for key in dispatcher.view_keys(index, known[index])}
        observed[index] = meta
        dispatcher.dispatch(index, attempts[index],
                            {key: value for key, (value, _w) in meta.items()})

    def on_outcome(outcome: TxOutcome) -> None:
        index = outcome.index
        results[index] = outcome.result
        outcome_reads[index] = outcome.reads
        writes = dict(outcome.writes_abs)
        writes.update(
            (k, (store.read(k, index)[0] + d) % WORD_MOD)
            for k, d in outcome.writes_delta
        )  # commutative=False ⇒ normally empty
        write_sets[index] = writes
        pending.discard(index)

    def on_lost(index: int) -> None:
        per_tx[index].aborted_times += 1
        dispatch(index)

    while needs:
        rounds += 1
        if rounds > executor.max_rounds:
            raise RuntimeError("OCC failed to converge")
        # Retract every redo version before anything in this round
        # dispatches, so no stale value leaks into a wave's view.
        for index in needs:
            if recorder is not None:
                for key in write_sets[index]:
                    recorder.retract(index, key)
            store.retract(index, write_sets[index])
            write_sets[index] = {}

        for start in range(0, len(needs), lanes):
            wave = needs[start:start + lanes]
            for index in wave:
                attempts[index] += 1
                if obs is not None:
                    if attempts[index] > 1:
                        obs.tx_reexecute(now(), index, attempt=attempts[index])
                    obs.tx_start(now(), index, attempt=attempts[index],
                                 thread=dispatcher.worker_for(index))
                dispatch(index)

            pending.update(wave)
            while pending:
                dispatcher.pump(on_outcome, dispatch, on_lost)

            # Wave barrier: publish and trace this wave's attempts; later
            # waves (and rounds) observe them at dispatch time.
            for index in wave:
                result = results[index]
                if recorder is not None:
                    for key, base, kind in outcome_reads[index]:
                        _value, writer = observed[index].get(key, (base, -1))
                        recorder.read(index, key, writer, base,
                                      attempt=attempts[index],
                                      blind=kind != 0)
                    for key, value in write_sets[index].items():
                        recorder.write(index, key, value=value,
                                       attempt=attempts[index])
                store.publish(index, write_sets[index])
                if recorder is not None:
                    for key, value in write_sets[index].items():
                        recorder.publish(index, key, "abs", value)
                    recorder.complete(index, attempt=attempts[index],
                                      success=result.success,
                                      gas_used=result.gas_used)
                if obs is not None:
                    obs.tx_end(now(), index, attempt=attempts[index],
                               success=result.success,
                               gas_used=result.gas_used)

        needs = []
        for index in range(count):
            for key, base, _kind in outcome_reads[index]:
                current = store.read(key, index)
                if current != observed[index].get(key, current):
                    if recorder is not None:
                        recorder.abort(index, attempt=attempts[index])
                    if obs is not None:
                        obs.tx_abort(now(), index, attempt=attempts[index],
                                     key=key, writer=current[1])
                    per_tx[index].aborted_times += 1
                    needs.append(index)
                    break

    receipts = [
        Receipt(index=i, result=results[i], attempts=attempts[i])
        for i in range(count)
    ]
    for i in range(count):
        per_tx[i].attempts = attempts[i]
        per_tx[i].gas_used = results[i].gas_used
        per_tx[i].succeeded = results[i].success

    wall = now()
    if obs is not None:
        obs.block_end(wall, makespan=0.0)

    metrics = executor._base_metrics(lanes, receipts)
    metrics.per_tx = per_tx
    metrics.seeded_views = seeded
    dispatcher.stamp(metrics, wall)
    return BlockExecution(writes=store.final_writes(), receipts=receipts,
                          metrics=metrics)


# ---------------------------------------------------------------------------
# Fork-join (DAG, schedule replay) on a worker pool
# ---------------------------------------------------------------------------


class PoolLanes(ForkJoin):
    """The fork-join gate's worker-pool lanes, in wall time.

    A transaction dispatches once every predecessor committed, so its
    dispatch-time view equals what read-time resolution gives the
    simulator — when ``view_keys`` is complete, which is the DAG
    baseline's stated precondition and holds by construction for a sealed
    schedule (conflict discovery, validation and view-miss learning are
    then structurally idle; the ``need`` path remains as a backstop and
    would merely re-dispatch, never diverge).  At most ``threads``
    transactions are in flight at once — the caller's logical concurrency,
    matching the simulator's thread pool rather than the physical worker
    count.  A crashed worker's transactions re-dispatch with views
    resolved from the same committed versions, so results are
    byte-identical even mid-kill."""

    def __init__(self, *args, pool: WorkerPool,
                 view_keys: Callable[[int], Set[StateKey]]) -> None:
        super().__init__(*args)
        self._t0 = perf_counter()
        self.threads = _lanes(pool, self.threads)
        self.view_keys = view_keys
        self.dispatcher = _Dispatcher(
            pool, self.resolve_code, self.txs,
            self.block if self.block is not None else BlockContext(),
            self.obs, self.now)
        self.outstanding = 0
        # Per transaction, the (value, writer) its view shipped per key.
        self._shipped: List[Dict[StateKey, Tuple[int, int]]] = [
            {} for _ in self.txs]

    def now(self) -> float:
        return perf_counter() - self._t0

    def free(self) -> bool:
        return self.outstanding < self.threads

    def start(self, index: int) -> None:
        self.outstanding += 1
        if self.obs is not None:
            self.obs.tx_start(self.now(), index,
                              thread=self.dispatcher.worker_for(index))
        self._dispatch(index)

    def _dispatch(self, index: int) -> None:
        keys = self.dispatcher.view_keys(index, self.view_keys(index))
        shipped = {key: self.store.read(key, index) for key in keys}
        self._shipped[index] = shipped
        self.dispatcher.dispatch(
            index, 1, {key: value for key, (value, _w) in shipped.items()})

    def _on_outcome(self, outcome: TxOutcome) -> None:
        index = outcome.index
        if self.recorder is not None:
            shipped = self._shipped[index]
            for key, base, kind in outcome.reads:
                _value, writer = shipped.get(key, (base, -1))
                self.recorder.read(index, key, writer, base, blind=kind != 0)
            for key, value in outcome.writes_abs:
                self.recorder.write(index, key, value=value)
        self.finish(index, outcome.result, dict(outcome.writes_abs))

    def release(self, index: int, now: float) -> None:
        self.outstanding -= 1

    def drive(self) -> float:
        self.pump()
        while self.outstanding:
            self.dispatcher.pump(self._on_outcome, self._dispatch)
        return 0.0

    def stamp(self, metrics) -> None:
        self.dispatcher.stamp(metrics, metrics.wall_time)
