"""Set-up, laps, the paced source and the replay: the node driven from outside.

The pipeline is assembled exactly as ``repro.pipeline.serve.run_serve``
assembles it (durable backend, real fsync, six-block pool with nonce
tracking and 0.9/0.5 watermarks, fee-ordered packer, two-block ingest rate,
``max_inflight=2``, 8 logical threads on the ``sim`` substrate, no planner).
The one difference is how a lap gets its fresh durable genesis: the set-up
mirrors genesis once with ``StateDB.mirror_durable`` and every lap opens a
byte copy of that directory with ``StateDB.open`` - 0.06 s instead of 1.3 s
on the largest genesis, and every lap starts from the same cold caches.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.chain.txpool import Packer, TransactionPool
from repro.chain.validator import Validator
from repro.core.errors import InvalidBlock
from repro.executors import DMVCCExecutor, SerialExecutor
from repro.pipeline.driver import PipelinedValidator, PipelineReport
from repro.pipeline.source import IteratorSource, WorkloadStream
from repro.sim.metrics import BlockMetrics
from repro.state.statedb import StateDB
from repro.workload.generator import Workload

from tracing import BlockStamps, SpanSink, Tracer
from workloads import WorkloadSpec

THREADS = 8
MAX_INFLIGHT = 2
EXECUTORS = {"dmvcc": DMVCCExecutor, "serial": SerialExecutor}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class SetUp:
    """One complete set-up: the workload (compiled, deployed, genesis
    seeded), the pre-generated transaction list and the durable genesis."""

    spec: WorkloadSpec
    workload: Workload
    txs: List[Transaction]
    template_dir: str          # closed durable mirror of genesis; laps copy it
    genesis_root: bytes
    seconds: float
    workload_s: float
    txgen_s: float
    mirror_s: float

    @property
    def codes(self):
        return self.workload.db.codes


def set_up(spec: WorkloadSpec, seed: int, blocks: int, smoke: bool,
           template_dir: str) -> SetUp:
    start = time.perf_counter()
    workload = Workload(spec.make_config(seed, smoke))
    built = time.perf_counter()
    count = blocks * spec.txs_per_block
    txs = WorkloadStream(workload, limit=count).pull(count)
    generated = time.perf_counter()
    mirror = workload.db.mirror_durable(template_dir)
    root = mirror.latest.root_hash
    mirror.close()
    end = time.perf_counter()
    if len(txs) != count:
        raise RuntimeError(f"stream produced {len(txs)} of {count} transactions")
    return SetUp(
        spec=spec, workload=workload, txs=txs, template_dir=template_dir,
        genesis_root=root, seconds=end - start, workload_s=built - start,
        txgen_s=generated - built, mirror_s=end - generated,
    )


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

class PacedSource:
    """Open-loop source: releases slot ``i`` (one block's worth) when
    ``start + i * period`` is due.  ``pull`` blocks until then, never hands
    out more than one slot per call, and records how late each release ran.
    A transaction's latency is measured from its slot's due time, so a
    stall of the node is charged to every slot it delays."""

    def __init__(self, slots: Sequence[Sequence[Transaction]], period: float,
                 clock=time.perf_counter, sleep=time.sleep) -> None:
        self._slots = [list(slot) for slot in slots]
        self.period = period
        self._clock = clock
        self._sleep = sleep
        self._next = 0
        self._rest: List[Transaction] = []
        self.start = clock()             # the lap resets it as its clock starts
        self.exhausted = False
        self.late: List[float] = []      # seconds, one per slot released

    def due(self, slot: int) -> float:
        return self.start + slot * self.period

    def pull(self, n: int) -> List[Transaction]:
        if not self._rest:
            if self._next >= len(self._slots):
                self.exhausted = True
                return []
            due = self.due(self._next)
            now = self._clock()
            while now < due:
                self._sleep(due - now)
                now = self._clock()
            self.late.append(now - due)
            self._rest = self._slots[self._next]
            self._next += 1
        out, self._rest = self._rest[:n], self._rest[n:]
        if not self._rest and self._next >= len(self._slots):
            self.exhausted = True
        return out


# ---------------------------------------------------------------------------
# One lap
# ---------------------------------------------------------------------------

Fingerprint = List[Tuple[bytes, Tuple[bytes, ...]]]


@dataclass
class Lap:
    label: str
    start: float
    stamps: List[float]                  # persist completion, heights 1..L
    report: PipelineReport
    fingerprint: Fingerprint             # (state root, tx hashes) per block
    metrics: List[BlockMetrics] = field(default_factory=list)
    late: List[float] = field(default_factory=list)       # paced laps only
    due: List[float] = field(default_factory=list)        # paced laps only
    tracer: Optional[Tracer] = None
    flat_hits: int = 0                   # snapshot reads served from a cache
    flat_misses: int = 0                 # snapshot reads that walked the trie

    @property
    def elapsed(self) -> float:
        return self.stamps[-1] - self.start

    @property
    def txs(self) -> int:
        return sum(len(hashes) for _root, hashes in self.fingerprint)


def fingerprint(blocks: Sequence[Block]) -> Fingerprint:
    return [
        (block.header.state_root, tuple(tx.tx_hash for tx in block.transactions))
        for block in blocks
    ]


def open_genesis(setup: SetUp, directory: str) -> StateDB:
    """A fresh durable node state: a byte copy of the set-up's mirror."""
    shutil.copytree(setup.template_dir, directory)
    db = StateDB.open(directory)
    db.codes = setup.codes
    if db.height != 0 or db.latest.root_hash != setup.genesis_root:
        raise RuntimeError("copied genesis does not reopen at the genesis root")
    return db


def run_lap(
    setup: SetUp,
    scheduler: str,
    label: str,
    directory: str,
    *,
    blocks: int,
    paced_slots: Optional[Sequence[Sequence[Transaction]]] = None,
    max_inflight: int = MAX_INFLIGHT,
    traced: bool = False,
    collect_metrics: bool = False,
) -> Tuple[Lap, List[Block]]:
    """Stream the set-up's transaction list through a fresh pipeline over a
    fresh durable genesis; returns the lap's record and its sealed blocks.
    The durable directory is left behind, closed, for the caller."""
    spec = setup.spec
    per_block = spec.txs_per_block
    db = open_genesis(setup, directory)
    tracer = Tracer(label) if traced else None
    sink = SpanSink(tracer) if traced else BlockStamps()
    executor = EXECUTORS[scheduler]()
    pool = TransactionPool(
        max_size=per_block * 6, nonce_tracking=True,
        high_watermark=0.9, low_watermark=0.5, obs=sink,
    )
    packer = Packer(max_txs=per_block, order="fee")
    if tracer is not None:
        tracer.wrap(pool, "add", "txpool.add")
        tracer.wrap(pool, "analyse", "analysis.analyse")
        tracer.wrap(packer, "pack", "txpool.pack")
        tracer.wrap(executor, "execute_block", "executors.execute_block")
        tracer.wrap(db, "commit", "state.commit", block_of=lambda: db.height + 1)
    driver = PipelinedValidator(
        "serve", db, executor, threads=THREADS, pool=pool, packer=packer,
        max_inflight=max_inflight, ingest_rate=per_block * 2, obs=sink,
    )
    if paced_slots is None:
        source = IteratorSource(setup.txs)
    else:
        source = PacedSource(paced_slots, spec.slot_period_s)
    metrics: List[BlockMetrics] = []
    on_block = None
    if collect_metrics:
        def on_block(height, view, txs, execution) -> None:
            metrics.append(execution.metrics)
    try:
        gc.collect()
        start = time.perf_counter()
        if paced_slots is not None:
            source.start = start
        report = driver.run(source, blocks, on_block=on_block)
        sealed = list(driver.blocks)
        snapshots = [db.snapshot(height) for height in range(db.height + 1)]
    finally:
        driver.close()
        db.close()
    stamps = [sink.persisted[h] for h in sorted(sink.persisted)]
    if len(stamps) != len(sealed):
        raise RuntimeError(f"{label}: {len(stamps)} persist stamps for {len(sealed)} blocks")
    lap = Lap(
        label=label, start=start, stamps=stamps,
        report=report, fingerprint=fingerprint(sealed), metrics=metrics,
        tracer=tracer,
        flat_hits=sum(snapshot.flat_hits for snapshot in snapshots),
        flat_misses=sum(snapshot.flat_misses for snapshot in snapshots),
    )
    if paced_slots is not None:
        lap.late = list(source.late)
        lap.due = [source.due(i) for i in range(len(source.late))]
    return lap, sealed


def slots_of(chain: Sequence[Block], offered: Sequence[Transaction]) -> List[List[Transaction]]:
    """The paced phase's slots: slot ``i`` holds the transactions of block
    ``i`` of the saturated chain, in the order the stream offered them, so a
    paced lap must pack and seal the very same chain."""
    position = {tx.tx_hash: index for index, tx in enumerate(offered)}
    return [
        sorted(block.transactions, key=lambda tx: position[tx.tx_hash])
        for block in chain
    ]


# ---------------------------------------------------------------------------
# Replay and the durable reopen
# ---------------------------------------------------------------------------

@dataclass
class Replay:
    verified_blocks: int = 0
    root_mismatches: int = 0
    unverified_txs: int = 0
    serial_time: float = 0.0
    makespan: float = 0.0
    instructions: int = 0
    txs: int = 0
    seconds: float = 0.0

    @property
    def gas_speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 0.0


def replay(setup: SetUp, chain: Sequence[Block]) -> Replay:
    """Import the sealed chain into an in-memory fork of genesis with the
    ordinary sequential validator (so every count repeats exactly), which
    verifies each sealed root and yields the gas-clock makespans."""
    validator = Validator(
        "replay", setup.workload.db.fork(), DMVCCExecutor(), threads=THREADS,
    )
    out = Replay()
    start = time.perf_counter()
    for index, block in enumerate(chain):
        try:
            execution = validator.import_block(block, verify_root=True)
        except InvalidBlock:
            # The importer cannot continue past a block it rejected.
            out.root_mismatches += 1
            out.unverified_txs = sum(len(b) for b in chain[index:])
            break
        out.verified_blocks += 1
        out.serial_time += execution.metrics.serial_time
        out.makespan += execution.metrics.makespan
        out.instructions += sum(r.result.steps for r in execution.receipts)
        out.txs += len(block)
    out.seconds = time.perf_counter() - start
    return out


def reopen_matches(directory: str, chain: Sequence[Block]) -> Tuple[bool, float]:
    """Does the durable directory of a finished lap recover to the last
    sealed height and root?  Returns the verdict and the reopen time."""
    start = time.perf_counter()
    db = StateDB.open(directory)
    seconds = time.perf_counter() - start
    try:
        head = chain[-1].header
        ok = db.height == head.number and db.latest.root_hash == head.state_root
    finally:
        db.close()
    return ok, seconds


def corrupt_root(block: Block) -> Block:
    """The same block with one bit of its sealed state root flipped."""
    root = block.header.state_root
    flipped = bytes([root[0] ^ 0x01]) + root[1:]
    return Block(replace(block.header, state_root=flipped), block.transactions)
