"""Layer probes: one layer's public functions, called directly.

The executor, analysis and EVM probes replay the first few sealed blocks of
the run's chain against their pre-states (an in-memory fork of genesis,
advanced with the serial write sets), and every scheduler's write set is
checked against serial's.  The state, trie and db probes work on genesis.
All probes return plain ``{metric name: value}`` dictionaries.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Sequence, Tuple

from repro.analysis import CSAGBuilder, PSAGCache, build_psag
from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.core.types import StateKey
from repro.evm.environment import BlockContext
from repro.executors import (
    DAGExecutor, DMVCCExecutor, OCCExecutor, SerialExecutor, run_tx_serially,
)
from repro.shard import ShardedDMVCCExecutor
from repro.state.journal import OverlayReader
from repro.substrate import get_substrate
from repro.trie import BranchNode, ExtensionNode, NodeStore, Trie, decode_node

from harness import THREADS, SetUp, open_genesis

SUBSTRATE_WORKERS = 2        # nproc of the reference host
SAMPLE_KEYS = 2000
SAMPLE_NODES = 1000
clock = time.perf_counter


def _timed(call: Callable, *args, **kwargs):
    start = clock()
    out = call(*args, **kwargs)
    return out, clock() - start


def block_probes(setup: SetUp, chain: Sequence[Block], count: int
                 ) -> Tuple[Dict[str, float], int]:
    """Analysis, EVM, executor, substrate and shard probes over the first
    ``count`` sealed blocks.  Returns the metrics and the number of
    transactions whose write set differed from serial's."""
    code_of = setup.codes.code_of
    fork = setup.workload.db.fork()
    psags = PSAGCache()
    threads_substrate = get_substrate("threads", workers=SUBSTRATE_WORKERS)
    processes = get_substrate("processes", workers=SUBSTRATE_WORKERS)
    _pool, pool_start_s = _timed(processes.acquire, THREADS)
    seconds: Dict[str, float] = {}
    txs_seen = calls = instructions = view_misses = fallbacks = wrong = 0
    csag_s = vm_s = 0.0

    def charge(name: str, elapsed: float) -> None:
        seconds[name] = seconds.get(name, 0.0) + elapsed

    try:
        for block in chain[:count]:
            txs = list(block.transactions)
            pre = fork.latest
            context = BlockContext(number=block.number, timestamp=block.header.timestamp)
            builder = CSAGBuilder(code_of, psags, context)
            csags = []
            for tx in txs:
                csag, elapsed = _timed(builder.build, tx, pre)
                csags.append(csag)
                if code_of(tx.to):
                    csag_s += elapsed
                    calls += 1

            # The VM alone: each contract call through the serial program,
            # in block order over the block's own pending writes.
            overlay = OverlayReader(pre.get)
            for tx in txs:
                (result, writes), elapsed = _timed(
                    run_tx_serially, tx, overlay, code_of, context)
                overlay.apply(writes)
                if code_of(tx.to):
                    vm_s += elapsed
                    instructions += result.steps

            def execute(name: str, executor, **kwargs):
                execution, elapsed = _timed(
                    executor.execute_block, txs, pre, code_of,
                    threads=THREADS, block=context, **kwargs)
                charge(name, elapsed)
                return execution

            serial = execute("serial", SerialExecutor())
            runs = {
                "dmvcc": execute("dmvcc", DMVCCExecutor(), csags=csags),
                "occ": execute("occ", OCCExecutor()),
                "dag": execute("dag", DAGExecutor(), csags=csags),
                "threads": execute(
                    "threads", DMVCCExecutor().attach_substrate(threads_substrate),
                    csags=csags),
                "processes": execute(
                    "processes", DMVCCExecutor().attach_substrate(processes),
                    csags=csags),
                "shard": execute("shard", ShardedDMVCCExecutor(), csags=csags),
            }
            view_misses += runs["processes"].metrics.view_misses
            fallbacks += runs["shard"].metrics.shard_fallbacks
            for execution in runs.values():
                if execution.writes != serial.writes:
                    wrong += len(txs)
            txs_seen += len(txs)
            fork.commit(serial.writes)
    finally:
        threads_substrate.close()
        processes.close()

    per_tx_ms = {name: total / txs_seen * 1e3 for name, total in seconds.items()}
    return {
        "analysis.probe.csag_ms_per_tx": csag_s / calls * 1e3 if calls else 0.0,
        "evm.probe.instr_per_s": instructions / vm_s if vm_s else 0.0,
        "evm.probe.ns_per_instr": vm_s / instructions * 1e9 if instructions else 0.0,
        "executors.probe.dmvcc_overhead_ms_per_tx": per_tx_ms["dmvcc"] - per_tx_ms["serial"],
        "executors.probe.occ_ms_per_tx": per_tx_ms["occ"],
        "executors.probe.dag_ms_per_tx": per_tx_ms["dag"],
        "substrate.processes.overhead_ms_per_tx": per_tx_ms["processes"] - per_tx_ms["dmvcc"],
        "substrate.processes.view_misses_per_tx": view_misses / txs_seen,
        "substrate.processes.pool_start_s": pool_start_s,
        "substrate.threads.overhead_ms_per_tx": per_tx_ms["threads"] - per_tx_ms["dmvcc"],
        "shard.probe.ms_per_tx": per_tx_ms["shard"],
        "shard.probe.fallbacks": float(fallbacks),
    }, wrong


def analysis_probes(setup: SetUp) -> Dict[str, float]:
    """Static analysis per contract, and the synthetic transfer C-SAG."""
    code_of = setup.codes.code_of
    codes = {code for code in (code_of(tx.to) for tx in setup.txs) if code}
    start = clock()
    for code in sorted(codes):
        build_psag(code)
    psag_s = clock() - start

    users = setup.workload.users
    transfers = [
        Transaction(users[i], users[(i + 1) % len(users)], 1)
        for i in range(min(len(users), 256))
    ]
    snapshot = setup.workload.db.latest
    builder = CSAGBuilder(code_of, PSAGCache())
    start = clock()
    for tx in transfers:
        builder.build_transfer(tx, snapshot)
    transfer_s = clock() - start
    return {
        "analysis.probe.psag_ms_per_contract": psag_s / len(codes) * 1e3 if codes else 0.0,
        "analysis.probe.transfer_csag_us": transfer_s / len(transfers) * 1e6,
    }


def state_probes(setup: SetUp, directory: str) -> Dict[str, float]:
    """Snapshot reads on a freshly opened durable genesis: through the trie
    with cold node caches, then from the snapshot's own read cache."""
    keys = [StateKey.balance(user) for user in setup.workload.users[:SAMPLE_KEYS]]
    db = open_genesis(setup, directory)
    try:
        snapshot = db.latest
        start = clock()
        for key in keys:
            snapshot.get_uncached(key)
        cold_s = clock() - start
        for key in keys:
            snapshot.get(key)
        start = clock()
        for key in keys:
            snapshot.get(key)
        warm_s = clock() - start
    finally:
        db.close()
    return {
        "state.probe.cold_get_us": cold_s / len(keys) * 1e6,
        "state.probe.warm_get_us": warm_s / len(keys) * 1e6,
    }


def trie_probes(items: Sequence[Tuple[bytes, bytes]]) -> Dict[str, float]:
    """Trie operations over a sample of the genesis items, in memory.  ``set_us``
    against ``commit_batch_us_per_key`` is the gap between ``seed_genesis``
    (one ``Trie.set`` per key) and ``mirror_durable`` (one batch)."""
    step = max(1, len(items) // SAMPLE_KEYS)
    sample = items[::step][:SAMPLE_KEYS]

    batched = Trie(NodeStore())
    _stats, batch_s = _timed(batched.commit_batch, sample)
    start = clock()
    for key, _value in sample:
        batched.get(key)
    get_s = clock() - start

    single = Trie(NodeStore())
    start = clock()
    for key, value in sample:
        single.set(key, value)
    set_s = clock() - start
    if single.root_hash != batched.root_hash:
        raise RuntimeError("per-key and batched trie roots differ")

    # A breadth-first sample of real nodes for the codec probes.
    store = batched.store
    nodes = []
    frontier = deque([batched.root])
    while frontier and len(nodes) < SAMPLE_NODES:
        node = store.get(frontier.popleft())
        nodes.append(node)
        if isinstance(node, BranchNode):
            frontier.extend(child for _nibble, child in node.live_children())
        elif isinstance(node, ExtensionNode):
            frontier.append(node.child)
    start = clock()
    encoded = [node.encode() for node in nodes]
    encode_s = clock() - start
    start = clock()
    for raw in encoded:
        decode_node(raw)
    decode_s = clock() - start
    return {
        "trie.probe.get_us": get_s / len(sample) * 1e6,
        "trie.probe.set_us": set_s / len(sample) * 1e6,
        "trie.probe.commit_batch_us_per_key": batch_s / len(sample) * 1e6,
        "trie.probe.encode_us_per_node": encode_s / len(nodes) * 1e6,
        "trie.probe.decode_us_per_node": decode_s / len(nodes) * 1e6,
    }
