"""Wall-clock benchmarks of the substrates.

Two layers share this file:

* micro-benchmarks of the building blocks all experiments stand on (trie,
  EVM, compiler, analysis) — regression canaries;
* A/B benchmarks of the *execution* substrates (``repro.substrate``): the
  same DMVCC block on the discrete-event simulator, on real threads
  (GIL-bound baseline), and on real multiprocessing workers.  Every timed
  run is parity-checked against the sim output, and the A/B driver
  archives a stamped JSON (cpu_count, Python version, backend) asserting
  the ≥1.5× processes-over-threads speedup on a low-conflict block when
  the machine actually has ≥4 cores to show it on.
"""

import os
import random
from time import perf_counter

import pytest

from repro.analysis import build_psag
from repro.chain.transaction import Transaction
from repro.analysis.csag import CSAGBuilder
from repro.core import Address, StateKey
from repro.evm import EVM, Message, drive
from repro.lang import compile_source
from repro.state import StateDB, WriteJournal
from repro.trie import Trie
from repro.workload import ERC20_SOURCE


@pytest.fixture(scope="module")
def erc20():
    return compile_source(ERC20_SOURCE)


def bench_trie_insert_1k(benchmark):
    rng = random.Random(0)
    items = [
        (rng.getrandbits(160).to_bytes(20, "big"), rng.getrandbits(64).to_bytes(8, "big"))
        for _ in range(1_000)
    ]

    def build():
        trie = Trie()
        for key, value in items:
            trie.set(key, value)
        return trie.root_hash

    benchmark(build)


def bench_trie_lookup(benchmark):
    rng = random.Random(1)
    trie = Trie()
    keys = []
    for _ in range(2_000):
        key = rng.getrandbits(160).to_bytes(20, "big")
        trie.set(key, b"v")
        keys.append(key)

    def lookup():
        for key in keys[:500]:
            assert trie.get(key) == b"v"

    benchmark(lookup)


def bench_compile_erc20(benchmark):
    benchmark(lambda: compile_source(ERC20_SOURCE))


def bench_evm_transfer_execution(benchmark, erc20):
    token = Address.derive("bench-token")
    alice = Address.derive("bench-alice")
    bob = Address.derive("bench-bob")
    from repro.core import mapping_slot

    state = {
        StateKey(token, mapping_slot(alice.to_word(), erc20.slot_of("balanceOf"))): 10**9
    }
    data = erc20.encode_call("transfer", bob, 5)
    evm = EVM(lambda a: erc20.code if a == token else b"")

    def execute():
        journal = WriteJournal(lambda key: state.get(key, 0))
        outcome = drive(evm, Message(alice, token, 0, data, 1_000_000), journal)
        assert outcome.result.success

    benchmark(execute)


def bench_psag_construction(benchmark, erc20):
    # Bypass the cache: measure the real analysis cost.
    benchmark(lambda: build_psag(erc20.code))


def bench_csag_refinement(benchmark, erc20):
    token = Address.derive("bench-token2")
    alice = Address.derive("bench-alice2")
    bob = Address.derive("bench-bob2")
    from repro.core import mapping_slot

    db = StateDB()
    db.deploy_contract(token, erc20.code, "ERC20")
    db.seed_genesis(
        {alice: 10**18},
        {StateKey(token, mapping_slot(alice.to_word(), erc20.slot_of("balanceOf"))): 10**9},
    )
    builder = CSAGBuilder(db.codes.code_of)
    tx = Transaction(alice, token, 0, erc20.encode_call("transfer", bob, 5))
    builder.build(tx, db.latest)  # warm the P-SAG cache

    benchmark(lambda: builder.build(tx, db.latest))


def bench_statedb_commit(benchmark):
    contract = Address.derive("bench-commit")
    db = StateDB()
    counter = [0]

    def commit():
        counter[0] += 1
        writes = {
            StateKey(contract, slot): counter[0] for slot in range(200)
        }
        db.commit(writes)

    benchmark(commit)


# ---------------------------------------------------------------------------
# Execution-substrate A/B: sim vs threads vs processes
# ---------------------------------------------------------------------------

from conftest import scaled  # noqa: E402

from repro.bench.reporting import save_results_json  # noqa: E402
from repro.executors import DMVCCExecutor  # noqa: E402
from repro.substrate import get_substrate  # noqa: E402
from repro.workload import Workload, low_contention_config  # noqa: E402
from repro.workload.scenarios import scenario_config  # noqa: E402

AB_SCENARIOS = ("mint_storm", "airdrop_flood", "mix")
AB_TXS = scaled(64, minimum=32)
AB_WORKLOAD = dict(
    users=scaled(300, minimum=120), erc20_tokens=4, dex_pools=2,
    nft_collections=2, icos=1,
)
# Real workers: as many as the box offers, capped where IPC overhead would
# dominate.  One-core machines still run everything (parity is the point
# there); the speedup assertion below only engages at >= 4 cores.
AB_WORKERS = max(2, min(os.cpu_count() or 1, 8))

_ab_cases = {}


def _ab_case(scenario):
    """Workload + block for one scenario, built once per process."""
    if scenario not in _ab_cases:
        workload = Workload(scenario_config(scenario, seed=7, **AB_WORKLOAD))
        txs = workload.transactions(AB_TXS)
        reference = DMVCCExecutor().execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=AB_WORKERS)
        _ab_cases[scenario] = (workload, txs, reference)
    return _ab_cases[scenario]


@pytest.mark.parametrize("backend", ["sim", "threads", "processes"])
@pytest.mark.parametrize("scenario", AB_SCENARIOS)
def bench_substrate_dmvcc(benchmark, scenario, backend):
    """One DMVCC block, same transactions, on each execution backend.

    The timed quantity is the full block execution (dispatch, worker
    round-trips, validation, commit); every timed run's output must equal
    the discrete-event simulator's, so a backend can never buy speed with
    divergence.
    """
    workload, txs, reference = _ab_case(scenario)
    substrate = None if backend == "sim" else get_substrate(
        backend, workers=AB_WORKERS)
    try:
        def run():
            executor = DMVCCExecutor()
            if substrate is not None:
                executor.attach_substrate(substrate)
            return executor.execute_block(
                txs, workload.db.latest, workload.db.codes.code_of,
                threads=AB_WORKERS)

        execution = benchmark(run)
        assert execution.writes == reference.writes, (
            f"{scenario}/{backend}: output diverged from sim")
        benchmark.extra_info.update(
            backend=backend,
            workers=AB_WORKERS if backend != "sim" else 0,
            cpu_count=os.cpu_count() or 1,
            scenario=scenario,
            txs=len(txs),
            view_misses=execution.metrics.view_misses,
            aborts=execution.metrics.aborts,
        )
    finally:
        if substrate is not None:
            substrate.close()


def bench_occ_view_seeding():
    """OCC dispatch views are seeded from static P-SAG analysis.

    A first OCC dispatch ships the transaction's balance keys plus the
    statically-resolved access sites of the called function
    (``repro.analysis.csag._static_key_sets``); every storage read outside
    that view costs a NeedKeys round-trip (a ``view_miss``) before the
    attempt can be redone with a wider view.  Seeding never touches OCC's
    conflict semantics, so the output must match the DMVCC reference.  (The
    unseeded arm this bench once compared against — 144 view misses vs 60
    seeded — went with the ``seed_views`` knob; see CHANGES.md, PR 9.)
    """
    from repro.executors import OCCExecutor

    workload, txs, reference = _ab_case("mix")
    substrate = get_substrate("threads", workers=AB_WORKERS)
    try:
        executor = OCCExecutor().attach_substrate(substrate)
        execution = executor.execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=AB_WORKERS)
    finally:
        substrate.close()
    assert execution.writes == reference.writes, (
        "occ: output diverged from the DMVCC reference")
    print(f"\nOCC view seeding ({len(txs)} txs, {AB_WORKERS} workers): "
          f"misses={execution.metrics.view_misses} "
          f"(seeded {execution.metrics.seeded_views} key(s) up front)")
    assert execution.metrics.seeded_views > 0


def _timed_run(executor_factory, substrate, txs, workload, repeats=3):
    """Best-of-N wall-clock seconds for one block execution."""
    best = None
    execution = None
    for _ in range(repeats):
        executor = executor_factory()
        if substrate is not None:
            executor.attach_substrate(substrate)
        start = perf_counter()
        execution = executor.execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=AB_WORKERS)
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, execution


def bench_substrate_ab_speedup():
    """Head-to-head: threads vs processes on a low-conflict DMVCC block.

    Threads share one GIL, so bytecode-bound EVM work cannot scale there;
    processes execute on real cores.  On a machine with >= 4 cores the
    processes backend must beat the threads backend by >= 1.5x; on smaller
    boxes the numbers are still measured and archived (with cpu_count
    stamped) but the ratio is reported, not asserted — a one-core
    container cannot exhibit multi-core speedup.
    """
    cpu = os.cpu_count() or 1
    workers = max(4, min(cpu, 8)) if cpu >= 4 else max(2, cpu)
    workload = Workload(low_contention_config(
        users=scaled(600, minimum=200), erc20_tokens=8, dex_pools=3,
        nft_collections=3, icos=1, seed=11))
    txs = workload.transactions(scaled(128, minimum=64))
    reference = DMVCCExecutor().execute_block(
        txs, workload.db.latest, workload.db.codes.code_of, threads=workers)

    results = {}
    for backend in ("threads", "processes"):
        substrate = get_substrate(backend, workers=workers)
        try:
            best, execution = _timed_run(
                DMVCCExecutor, substrate, txs, workload)
        finally:
            substrate.close()
        assert execution.writes == reference.writes, (
            f"{backend}: output diverged from sim")
        results[backend] = best
    sim_best, _ = _timed_run(DMVCCExecutor, None, txs, workload)
    results["sim"] = sim_best

    speedup = results["threads"] / results["processes"]
    document = save_results_json(
        os.environ.get("REPRO_SUBSTRATE_AB_OUT", "substrate_ab.json"),
        {
            "benchmark": "substrate_ab_dmvcc_low_conflict",
            "txs": len(txs),
            "workers": workers,
            "wall_seconds": results,
            "processes_over_threads_speedup": round(speedup, 3),
            "speedup_asserted": cpu >= 4,
        },
        backend="processes",
    )
    print(f"\nsubstrate A/B (DMVCC, low conflict, {len(txs)} txs, "
          f"{workers} workers, {cpu} cores): "
          f"sim={results['sim']:.3f}s threads={results['threads']:.3f}s "
          f"processes={results['processes']:.3f}s "
          f"speedup(processes/threads)={speedup:.2f}x")
    assert document["repro_meta"]["cpu_count"] == cpu
    if cpu >= 4:
        assert speedup >= 1.5, (
            f"processes backend only {speedup:.2f}x over threads with "
            f"{workers} workers on {cpu} cores (need >= 1.5x)")
