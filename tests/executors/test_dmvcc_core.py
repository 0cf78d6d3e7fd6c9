"""The DMVCC protocol core, driven directly: no VM, no event loop, no pool.

The scripted driver below plays both execution models' part by hand on the
paper's Fig. 1 shape — three transactions, two keys:

* T0 is predicted to write ``A`` (and will *also* write ``B``, which the
  analysis missed);
* T1 is predicted to read ``A`` and ``B`` and write ``A``;
* T2 is predicted to read ``A``.

One run walks every bookkeeping path the core owns: a predicted write is
published and wakes its reader; an unpredicted write is inserted on the
fly and aborts the reader that consumed the older version; that reader had
published, so its version is retracted and the abort cascades; on
re-execution it skips its predicted write, which must still unblock the
transaction waiting on it.  The same script runs under a fake *simulated*
clock (advanced by the script, like the event loop's gas time) and a fake
*wall* clock (advancing on its own whenever it is read, like
``perf_counter``) and must make identical decisions under both — the seed
of the clock-free model ROADMAP aim 3 asks for.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.analysis.csag import AccessType
from repro.core import Address, StateKey
from repro.core.errors import SchedulingError
from repro.executors import DMVCCExecutor
from repro.executors.dmvcc_core import DMVCCCore, ReadRecord, Status
from repro.executors.txprogram import TxResult, TxStatus
from repro.obs import EventBus
from repro.obs.events import TxAbort, VersionWaitBegin, VersionWaitEnd
from repro.verify.trace import (
    AbortEvent, PublishEvent, RetractEvent, TraceRecorder,
)

CONTRACT = Address.derive("fig1")
A = StateKey(CONTRACT, 0)
B = StateKey(CONTRACT, 1)
SNAPSHOT = {A: 1, B: 2}
OK = TxStatus.SUCCESS


class GasClock:
    """Simulated time: moves only when the script says gas was burnt."""

    def __init__(self):
        self.now = 0.0

    def burn(self, gas):
        self.now += gas

    def __call__(self):
        return self.now


class WallClock:
    """Wall time: moves whenever anyone looks, whatever the script does."""

    def __init__(self):
        self.now = 0.0

    def burn(self, gas):
        pass

    def __call__(self):
        self.now += 0.0013
        return self.now


class ScriptedCore(DMVCCCore):
    """A driver with nothing behind it: the test is the executor."""

    def __init__(self, clock, executor, csags):
        self.clock = clock
        self.ready_signals = 0
        self.unwound = []
        txs = [SimpleNamespace(to=CONTRACT) for _ in csags]
        snapshot = SimpleNamespace(get=lambda key: SNAPSHOT.get(key, 0))
        super().__init__(executor, txs, snapshot, lambda address: b"",
                         None, csags)

    def now(self):
        return self.clock()

    def _on_ready(self):
        self.ready_signals += 1

    def _unwind(self, state, running):
        self.unwound.append((state.index, running))
        super()._unwind(state, running)

    # -- what an execution model would do ------------------------------

    def start(self, expected):
        index = self.queue.pop()
        assert index == expected
        state = self.states[index]
        state.status = Status.RUNNING
        state.attempts += 1
        return state

    def read(self, state, key):
        seq = self.sequences.sequence(key)
        resolution, speculative = self._resolve(seq, state.index)
        assert not speculative
        base = resolution.resolve_with_snapshot(self.snapshot.get(key))
        seq.record_read(state.index, resolution.version_from)
        state.registered_reads[key] = base
        state.read_log.append(ReadRecord(
            key, base, resolution.version_from, registered=True))
        return base, resolution.version_from

    def finish(self, state, gas, writes):
        self._finish_attempt(state, TxResult(OK, gas), writes, {})


def csag(**per_key):
    keys = {"A": A, "B": B}
    return SimpleNamespace(
        per_key={keys[name]: access for name, access in per_key.items()},
        predicted_success=True, missing=set(),
        static_read_keys=set(), static_write_keys=set(),
    )


def run_fig1(clock):
    bus, recorder = EventBus(), TraceRecorder()
    executor = DMVCCExecutor().attach_obs(bus).attach_recorder(recorder)
    core = ScriptedCore(clock, executor, [
        csag(A=AccessType.WRITE),
        csag(A=AccessType.READ_WRITE, B=AccessType.READ),
        csag(A=AccessType.READ),
    ])
    t0, t1, t2 = range(3)
    log = {}

    core._setup(threads=3)
    log["initial"] = [s.status for s in core.states]
    log["t1_waits_on"] = core.locks.state(t1).missing()
    log["t2_waits_on"] = core.locks.state(t2).missing()

    # T0 runs and publishes its predicted write early: T1 wakes, T2 still
    # waits for T1's own write of A.
    s0 = core.start(t0)
    clock.burn(100)
    core._publish(s0, A, "abs", 5)
    log["after_predicted_publish"] = [s.status for s in core.states]

    # T1 reads both keys and publishes A early too: T2 wakes.
    s1 = core.start(t1)
    clock.burn(50)
    log["t1_reads"] = [core.read(s1, A), core.read(s1, B)]
    core._publish(s1, A, "abs", 6)
    log["t2_locks"] = core.locks.is_ready(t2)

    # T2 reads T1's version and completes.
    s2 = core.start(t2)
    clock.burn(30)
    log["t2_read"] = core.read(s2, A)
    core.finish(s2, 30, {})
    assert s2.status is Status.DONE

    # T0 now writes B, which nobody predicted: the entry is inserted on the
    # fly, T1 (it read B from the snapshot) aborts, its published A is
    # retracted, and T2 — which consumed that A and cannot revalidate —
    # aborts in cascade.
    clock.burn(40)
    core._publish(s0, B, "abs", 9)
    log["after_cascade"] = [s.status for s in core.states]
    log["locks_after_cascade"] = (core.locks.is_ready(t1),
                                  core.locks.state(t2).missing())
    core.finish(s0, 200, {A: 5, B: 9})

    # T1 re-executes, sees B = 9 and takes a path that never writes A: the
    # predicted write is skip-marked and T2 unblocks onto T0's version.
    s1 = core.start(t1)
    clock.burn(50)
    log["t1_rereads"] = [core.read(s1, A), core.read(s1, B)]
    core.finish(s1, 60, {})
    log["after_skip"] = [s.status for s in core.states]

    s2 = core.start(t2)
    clock.burn(30)
    log["t2_reread"] = core.read(s2, A)
    core.finish(s2, 30, {})

    assert core._all_done()
    execution = core._result(threads=3, end=clock())
    log["writes"] = execution.writes
    log["attempts"] = [r.attempts for r in execution.receipts]
    log["rescues"] = execution.metrics.rescues
    log["aborted_times"] = [t.aborted_times for t in core.per_tx]
    log["unwound"] = core.unwound
    log["ready_signals"] = core.ready_signals
    log["wakes"] = [(e.tx, e.key, e.granted_by)
                    for e in bus.of_type(VersionWaitEnd)]
    log["stalls"] = [(e.tx, e.keys, e.blockers)
                     for e in bus.of_type(VersionWaitBegin)]
    log["aborts"] = [(e.tx, e.attempt, e.key, e.writer)
                     for e in bus.of_type(TxAbort)]
    # Everything the bus and the trace saw, minus the timestamps.
    log["obs"] = [(type(e).__name__,) + dataclasses.astuple(e)[2:]
                  for e in bus.events]
    log["trace"] = list(recorder.events)
    return log


def test_fig1_on_the_simulated_clock():
    log = run_fig1(GasClock())
    W, R, D = Status.WAITING, Status.READY, Status.DONE

    assert log["initial"] == [R, W, W]
    assert log["t1_waits_on"] == {A}      # B resolves from the snapshot
    assert log["t2_waits_on"] == {A}
    # Predicted write published: exactly T1 wakes.
    assert log["after_predicted_publish"] == [Status.RUNNING, R, W]
    assert log["t1_reads"] == [(5, 0), (2, -1)]
    assert log["t2_locks"] is True
    assert log["t2_read"] == (6, 1)
    # Unpredicted write: T1 is requeued at once (T0's B is there now), T2
    # is back to waiting on T1's retracted write of A.
    assert log["after_cascade"] == [Status.RUNNING, R, W]
    assert log["locks_after_cascade"] == (True, {A})
    assert log["t1_rereads"] == [(5, 0), (9, 0)]
    # Predicted write skipped: T2 is released onto T0's version.
    assert log["after_skip"] == [D, D, R]
    assert log["t2_reread"] == (5, 0)

    assert log["writes"] == {A: 5, B: 9}
    assert log["attempts"] == [1, 2, 2]
    assert log["aborted_times"] == [0, 1, 1]
    assert log["rescues"] == 0
    # The wake set, in order: T0's A wakes T1, T1's A wakes T2, and T1's
    # skipped A wakes T2 again.
    assert log["wakes"] == [(1, A, 0), (2, A, 1), (2, A, 1)]
    assert log["stalls"] == [(1, (A,), (0,)), (2, (A,), (0, 1)),
                             (2, (A,), (1,))]
    # The abort cascade, in order: the reader, then its reader.
    assert log["aborts"] == [(1, 1, B, 0), (2, 1, A, 1)]
    assert log["unwound"] == [(1, True), (2, False)]

    publishes = [(e.tx, e.key, e.value, e.early) for e in log["trace"]
                 if isinstance(e, PublishEvent)]
    assert publishes == [(0, A, 5, True), (1, A, 6, True), (0, B, 9, True)]
    retracts = [(e.tx, e.key, e.victims) for e in log["trace"]
                if isinstance(e, RetractEvent)]
    assert retracts == [(1, A, (2,))]
    assert [(e.tx, e.key) for e in log["trace"]
            if isinstance(e, AbortEvent)] == [(1, B), (2, A)]


def test_fig1_is_the_same_protocol_on_a_wall_clock():
    simulated, wall = run_fig1(GasClock()), run_fig1(WallClock())
    assert wall == simulated


def test_deadlock_is_reported_not_spun_on():
    """Nothing ready, nothing running, nobody waiting to rescue: the core
    says so instead of looping."""
    core = ScriptedCore(GasClock(), DMVCCExecutor(),
                        [csag(A=AccessType.WRITE)])
    core._setup(threads=1)
    core.start(0)  # RUNNING forever: no driver behind it
    with pytest.raises(SchedulingError, match="stuck transactions: \\[0\\]"):
        core._rescue()
