"""Sharded execution A/B: partition throughput and merge-declared aborts.

Two claims ride this file, each parity-checked and archived as stamped
JSON (``shards``/``merge_ops`` provenance included, schema v3):

* **Sharded throughput** — the same cross-shard-storm block, unsharded
  DMVCC vs ``ShardedDMVCCExecutor`` over 4 hash partitions.  Sharding's
  win is *real-core* parallelism (each shard is its own process with its
  own interpreter), so the 1.5x sharded-over-unsharded wall-clock
  assertion only fires on machines with >= 4 cores; everywhere else the
  measurement is archived without judgment.  The box-independent claim —
  the sharded schedule still beats serial by >= 2x despite the ordered
  phase-2 tail — is asserted unconditionally.
* **Merge abort drop** — a hot-ERC20-balance block whose exchange payouts
  are mispredicted (the C-SAG sees an empty balance; in-block credits make
  them succeed), so their late-inserted writes cascade aborts through
  every reader of the hot key.  Declaring the balances/supplies as
  bounded SUB merges must cut DMVCC aborts by >= 50%: guard-outcome
  stability tolerates the drift instead of re-executing.
"""

import os
import random
from time import perf_counter

from conftest import scaled

from repro.bench.reporting import save_results_json
from repro.chain.transaction import Transaction
from repro.executors import DMVCCExecutor, SerialExecutor
from repro.shard import ShardedDMVCCExecutor
from repro.substrate import get_substrate
from repro.workload import Workload, WorkloadConfig
from repro.workload.scenarios import scenario_config

SHARDS = 4
WORKERS = max(2, min(os.cpu_count() or 1, SHARDS))


def _timed(factory, substrate, txs, workload, threads=8, repeats=3):
    best = None
    execution = None
    for _ in range(repeats):
        executor = factory()
        if substrate is not None:
            executor.attach_substrate(substrate)
        start = perf_counter()
        execution = executor.execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=threads)
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, execution


def bench_sharded_throughput():
    """Unsharded vs 4-shard DMVCC on the shardable storm preset."""
    cpu = os.cpu_count() or 1
    txs_count = scaled(192, minimum=48)
    workload = Workload(scenario_config(
        "cross_shard_storm", seed=11, users=scaled(400, minimum=160),
        erc20_tokens=16, dex_pools=4, nft_collections=2, icos=1))
    txs = workload.transactions(txs_count)
    reference = SerialExecutor().execute_block(
        txs, workload.db.latest, workload.db.codes.code_of)

    unsharded_wall, unsharded = _timed(DMVCCExecutor, None, txs, workload)
    assert unsharded.writes == reference.writes

    substrate = get_substrate("processes", workers=WORKERS)
    try:
        sharded_wall, sharded = _timed(
            lambda: ShardedDMVCCExecutor(shards=SHARDS), substrate,
            txs, workload)
    finally:
        substrate.close()
    assert sharded.writes == reference.writes, "sharded output diverged"

    wall_speedup = unsharded_wall / sharded_wall
    document = save_results_json(
        os.environ.get("REPRO_SHARD_BENCH_OUT", "sharding_throughput.json"),
        {
            "benchmark": "sharded_dmvcc_throughput",
            "scenario": "cross_shard_storm",
            "txs": len(txs),
            "workers": WORKERS,
            "cross_shard_txs": sharded.metrics.cross_shard_txs,
            "handoff_requeues": sharded.metrics.handoff_requeues,
            "shard_fallbacks": sharded.metrics.shard_fallbacks,
            "makespan": {"unsharded": unsharded.metrics.makespan,
                         "sharded": sharded.metrics.makespan},
            "speedup_vs_serial": {
                "unsharded": round(unsharded.metrics.speedup, 3),
                "sharded": round(sharded.metrics.speedup, 3)},
            "wall_seconds": {"unsharded": unsharded_wall,
                             "sharded": sharded_wall},
            "wall_speedup": round(wall_speedup, 3),
            "wall_speedup_asserted": cpu >= SHARDS,
        },
        backend="processes", shards=SHARDS,
    )
    print(f"\nsharded throughput ({len(txs)} txs, {SHARDS} shards, {cpu} "
          f"cores): vs-serial {sharded.metrics.speedup:.2f}x, wall "
          f"{wall_speedup:.2f}x, cross={sharded.metrics.cross_shard_txs} "
          f"fallbacks={sharded.metrics.shard_fallbacks}")
    assert document["repro_meta"]["shards"] == SHARDS
    assert sharded.metrics.shard_fallbacks == 0, (
        "storm preset should shard cleanly")
    assert sharded.metrics.speedup >= 2.0, (
        f"sharded schedule only {sharded.metrics.speedup:.2f}x over serial "
        f"(need >= 2x on the storm preset)")
    if cpu >= SHARDS:
        assert wall_speedup >= 1.5, (
            f"sharded wall-clock only {wall_speedup:.2f}x over unsharded "
            f"with {WORKERS} workers on {cpu} cores (need >= 1.5x)")


def _hot_balance_case(seed=5):
    """The misprediction workload: exchange payouts whose C-SAG predicted
    failure (empty snapshot balance) succeed in-block once credits land —
    their late-inserted hot-balance writes abort other readers."""
    pull_count = scaled(40, minimum=24)
    credit_count = scaled(40, minimum=24)
    workload = Workload(WorkloadConfig(
        users=max(200, pull_count + credit_count), erc20_tokens=1,
        dex_pools=1, nft_collections=1, icos=1, seed=seed))
    erc20 = workload.contracts.compiled["ERC20"]
    token = workload.contracts.erc20[0]
    exchange = workload.contracts.exchange
    resolver = workload.db.codes.code_of
    rng = random.Random(seed ^ 0x51AD)

    pullers = workload.users[:pull_count]
    creditors = workload.users[pull_count:pull_count + credit_count]
    setup = [Transaction(exchange, token, 0,
                         erc20.encode_call("approve", u, 10**9),
                         nonce=i, label="setup:approve")
             for i, u in enumerate(pullers)]
    setup += [Transaction(exchange, token, 0,
                          erc20.encode_call("mint", u, 50_000),
                          nonce=pull_count + j, label="setup:mint")
              for j, u in enumerate(creditors)]
    seeded = SerialExecutor().execute_block(
        setup, workload.db.latest, resolver)
    assert all(r.result.status.name == "SUCCESS" for r in seeded.receipts)
    workload.db.commit(seeded.writes)

    txs = [Transaction(u, token, 0,
                       erc20.encode_call("transfer", exchange, 10_000),
                       label="credit")
           for u in creditors]
    txs += [Transaction(u, token, 0,
                        erc20.encode_call("transferFrom", exchange, u,
                                          rng.randint(10, 50)),
                        label="pull")
            for u in pullers]
    return workload, txs


def bench_merge_abort_drop():
    """Declared SUB merges vs plain DMVCC on the hot-balance block."""
    workload, txs = _hot_balance_case()
    snapshot = workload.db.latest
    resolver = workload.db.codes.code_of
    reference = SerialExecutor().execute_block(txs, snapshot, resolver)

    plain = DMVCCExecutor().execute_block(
        txs, snapshot, resolver, threads=16)
    assert plain.writes == reference.writes

    declared = DMVCCExecutor()
    registry = workload.declared_merges()
    declared.attach_merges(registry)
    merged = declared.execute_block(txs, snapshot, resolver, threads=16)
    assert merged.writes == reference.writes, "merge-declared run diverged"

    drop = 1.0 - merged.metrics.aborts / max(plain.metrics.aborts, 1)
    document = save_results_json(
        os.environ.get("REPRO_MERGE_BENCH_OUT", "sharding_merge_drop.json"),
        {
            "benchmark": "merge_declared_abort_drop",
            "txs": len(txs),
            "aborts": {"plain": plain.metrics.aborts,
                       "declared": merged.metrics.aborts},
            "merge_intents": merged.metrics.merge_intents,
            "merge_tolerated": merged.metrics.merge_tolerated,
            "speedup": {"plain": round(plain.metrics.speedup, 3),
                        "declared": round(merged.metrics.speedup, 3)},
            "abort_drop": round(drop, 3),
        },
        shards=0, merge_ops=[spec.op.value for _k, spec in registry],
    )
    print(f"\nmerge abort drop ({len(txs)} txs): plain="
          f"{plain.metrics.aborts} declared={merged.metrics.aborts} "
          f"tolerated={merged.metrics.merge_tolerated} "
          f"drop={drop:.0%}")
    assert document["repro_meta"]["merge_ops"] == ["sub"]
    assert plain.metrics.aborts > 0, (
        "misprediction workload produced no plain-DMVCC aborts to cut")
    assert merged.metrics.aborts <= plain.metrics.aborts * 0.5, (
        f"declared merges only cut aborts {drop:.0%} (need >= 50%)")


def bench_sharded_parity_smoke():
    """Every scenario × merge-mode parity on one shard count — the quick
    in-bench version of ``repro verify --shards`` (sim backend only)."""
    from repro.verify import run_shard_verify

    report = run_shard_verify(
        shards=SHARDS, backends=("sim",),
        txs_per_block=scaled(32, minimum=24), seed=13)
    print("\n" + report.render())
    assert report.ok, report.render()
