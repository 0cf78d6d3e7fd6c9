"""Experiment harness: one entry point per figure/claim in the paper.

Every function returns plain data (lists of rows) and can also print the
paper-style series, so both the pytest-benchmark wrappers and the example
scripts reuse the same machinery.  All experiments are seeded and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..chain.network import NetworkSimulation
from ..chain.txpool import Packer
from ..chain.validator import Validator
from ..executors import EXECUTORS, SerialExecutor
from ..executors.base import Executor
from ..sim.metrics import BlockMetrics, aggregate
from ..state.statedb import StateDB
from ..workload.generator import (
    Workload,
    WorkloadConfig,
    high_contention_config,
    low_contention_config,
)

DEFAULT_THREAD_COUNTS = (1, 2, 4, 8, 16, 32)


def default_executors() -> Dict[str, Callable[[], Executor]]:
    """The paper's comparison set."""
    return {name: cls for name, cls in EXECUTORS.items() if name != "serial"}


@dataclass
class SpeedupRow:
    """One point of a Fig. 7-style speedup curve."""

    scheduler: str
    threads: int
    speedup: float
    aborts: int
    abort_rate: float
    executions: int
    utilisation: float

    def __str__(self) -> str:
        return (
            f"{self.scheduler:>8} @ {self.threads:>2} threads: "
            f"{self.speedup:6.2f}x  (aborts={self.aborts}, "
            f"abort_rate={self.abort_rate:.2%})"
        )


@dataclass
class SpeedupResult:
    """A full speedup experiment (one workload, all schedulers/threads)."""

    name: str
    rows: List[SpeedupRow] = field(default_factory=list)
    correctness_ok: bool = True

    def series(self, scheduler: str) -> List[SpeedupRow]:
        return sorted(
            (r for r in self.rows if r.scheduler == scheduler),
            key=lambda r: r.threads,
        )

    def at(self, scheduler: str, threads: int) -> SpeedupRow:
        for row in self.rows:
            if row.scheduler == scheduler and row.threads == threads:
                return row
        raise KeyError((scheduler, threads))

    def format_table(self) -> str:
        lines = [f"== {self.name} =="]
        schedulers = sorted({r.scheduler for r in self.rows})
        threads = sorted({r.threads for r in self.rows})
        header = "scheduler | " + " ".join(f"{t:>7}" for t in threads)
        lines.append(header)
        lines.append("-" * len(header))
        for scheduler in schedulers:
            cells = []
            for t in threads:
                try:
                    cells.append(f"{self.at(scheduler, t).speedup:7.2f}")
                except KeyError:
                    cells.append("      -")
            lines.append(f"{scheduler:>9} | " + " ".join(cells))
        lines.append(f"correctness (root match): {'OK' if self.correctness_ok else 'FAILED'}")
        return "\n".join(lines)


def run_speedup_experiment(
    config: WorkloadConfig,
    name: str,
    blocks: int = 4,
    txs_per_block: int = 1_000,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    executors: Optional[Dict[str, Callable[[], Executor]]] = None,
    verify_roots: bool = True,
) -> SpeedupResult:
    """Fig. 7 machinery: speedup vs thread count for every scheduler.

    Blocks are executed back-to-back: the reference serial execution commits
    each block before the next is generated against its snapshot, exactly
    like the paper's repacked-block evaluation.  Every parallel execution of
    a block starts from the same pre-block snapshot and is checked to
    produce the same write set as serial.
    """
    if executors is None:
        executors = default_executors()
    workload = Workload(config)
    block_txs = [workload.transactions(txs_per_block) for _ in range(blocks)]

    result = SpeedupResult(name=name)
    serial = SerialExecutor()
    # scheduler -> threads -> accumulated metrics
    metric_acc: Dict[str, Dict[int, List[BlockMetrics]]] = {
        label: {t: [] for t in thread_counts} for label in executors
    }

    for txs in block_txs:
        base_height = workload.db.height
        snapshot = workload.db.snapshot(base_height)
        reference = serial.execute_block(
            txs, snapshot, workload.db.codes.code_of
        )
        for label, factory in executors.items():
            for threads in thread_counts:
                execution = factory().execute_block(
                    txs, snapshot, workload.db.codes.code_of, threads=threads
                )
                if verify_roots and execution.writes != reference.writes:
                    result.correctness_ok = False
                metric_acc[label][threads].append(execution.metrics)
        workload.db.commit(reference.writes)

    for label in executors:
        for threads in thread_counts:
            total = aggregate(metric_acc[label][threads])
            result.rows.append(
                SpeedupRow(
                    scheduler=label,
                    threads=threads,
                    speedup=total.speedup,
                    aborts=total.aborts,
                    abort_rate=total.abort_rate,
                    executions=total.executions,
                    utilisation=total.utilisation,
                )
            )
    return result


def run_fig7a(
    blocks: int = 4,
    txs_per_block: int = 1_000,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    **config_overrides,
) -> SpeedupResult:
    """Fig. 7(a): speedup on the mainnet-mix (low-contention) workload."""
    config = low_contention_config(**config_overrides)
    return run_speedup_experiment(
        config, "Fig 7(a): speedup, low contention", blocks, txs_per_block,
        thread_counts,
    )


def run_fig7b(
    blocks: int = 4,
    txs_per_block: int = 1_000,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    **config_overrides,
) -> SpeedupResult:
    """Fig. 7(b): speedup under hot-contract skew (high contention)."""
    config = high_contention_config(**config_overrides)
    return run_speedup_experiment(
        config, "Fig 7(b): speedup, high contention", blocks, txs_per_block,
        thread_counts,
    )


# ---------------------------------------------------------------------------
# RQ1: correctness (Merkle-root comparison)
# ---------------------------------------------------------------------------

@dataclass
class CorrectnessResult:
    blocks_checked: int
    txs_checked: int
    matches: int

    @property
    def all_match(self) -> bool:
        return self.matches == self.blocks_checked


def run_rq1_correctness(
    blocks: int = 10,
    txs_per_block: int = 200,
    scheduler: str = "dmvcc",
    threads: int = 8,
    **config_overrides,
) -> CorrectnessResult:
    """RQ1: execute blocks with a parallel scheduler and with serial EVM on
    two independent StateDBs; compare the Merkle roots block by block."""
    config = low_contention_config(**config_overrides)
    workload = Workload(config)
    factory = default_executors()[scheduler]

    # A second, independent chain replaying the same blocks serially.
    shadow = Workload(config)
    serial = SerialExecutor()

    matches = 0
    txs_checked = 0
    for _ in range(blocks):
        txs = workload.transactions(txs_per_block)
        txs_checked += len(txs)

        execution = factory().execute_block(
            txs, workload.db.latest, workload.db.codes.code_of, threads=threads
        )
        parallel_root = workload.db.commit(execution.writes).root_hash

        reference = serial.execute_block(
            txs, shadow.db.latest, shadow.db.codes.code_of
        )
        serial_root = shadow.db.commit(reference.writes).root_hash

        if parallel_root == serial_root:
            matches += 1
    return CorrectnessResult(blocks, txs_checked, matches)


# ---------------------------------------------------------------------------
# RQ3: blockchain-environment throughput
# ---------------------------------------------------------------------------

@dataclass
class ThroughputRow:
    scheduler: str
    threads: int
    throughput: float
    speedup: float
    mean_execution_seconds: float
    roots_agree: bool


@dataclass
class ThroughputResult:
    name: str
    rows: List[ThroughputRow] = field(default_factory=list)

    def at(self, scheduler: str, threads: int) -> ThroughputRow:
        for row in self.rows:
            if row.scheduler == scheduler and row.threads == threads:
                return row
        raise KeyError((scheduler, threads))

    def format_table(self) -> str:
        lines = [f"== {self.name} =="]
        for row in sorted(self.rows, key=lambda r: (r.scheduler, r.threads)):
            lines.append(
                f"{row.scheduler:>8} @ {row.threads:>2} threads: "
                f"{row.throughput:8.1f} TPS ({row.speedup:5.2f}x vs serial, "
                f"exec {row.mean_execution_seconds:6.2f}s/block, "
                f"roots {'ok' if row.roots_agree else 'MISMATCH'})"
            )
        return "\n".join(lines)


def run_blockchain_throughput(
    config: WorkloadConfig,
    name: str,
    validators: int = 4,
    blocks: int = 3,
    txs_per_block: int = 2_000,
    block_interval: float = 12.0,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    schedulers: Sequence[str] = ("dag", "occ", "dmvcc"),
    gas_per_second: float = 1_250_000.0,
    seed: int = 7,
) -> ThroughputResult:
    """Fig. 8 machinery: throughput speedup in a simulated validator
    network.  The serial single-thread run defines the baseline."""
    result = ThroughputResult(name=name)
    # One workload and transaction stream shared by every row; each run
    # gets fresh, fully independent validator StateDBs cloned from it.
    workload = Workload(config)
    txs = workload.transactions(blocks * txs_per_block)

    def build_network(executor_factory, threads: int) -> NetworkSimulation:
        nodes = []
        for v in range(validators):
            db = _clone_statedb(workload)
            nodes.append(
                Validator(
                    f"v{v}",
                    db,
                    executor_factory(),
                    threads=threads,
                    packer=Packer(max_txs=txs_per_block),
                )
            )
        network = NetworkSimulation(
            nodes,
            block_interval=block_interval,
            gas_per_second=gas_per_second,
            seed=seed,
            deterministic_interval=True,
        )
        network.submit(txs)
        return network

    serial_net = build_network(SerialExecutor, 1)
    serial_result = serial_net.run(blocks)
    baseline = serial_result.throughput
    result.rows.append(
        ThroughputRow(
            "serial", 1, baseline, 1.0,
            serial_result.mean_execution_seconds, serial_result.all_roots_agree,
        )
    )

    executors = default_executors()
    for label in schedulers:
        for threads in thread_counts:
            network = build_network(executors[label], threads)
            run = network.run(blocks)
            result.rows.append(
                ThroughputRow(
                    label,
                    threads,
                    run.throughput,
                    run.throughput / baseline if baseline else 0.0,
                    run.mean_execution_seconds,
                    run.all_roots_agree,
                )
            )
    return result


def clone_statedb(workload: Workload) -> StateDB:
    """Each validator gets a logically independent StateDB starting at the
    workload's current state (a cheap fork: the content-addressed trie
    store is append-only, so forks can never interfere)."""
    return workload.db.fork()


# Backwards-compatible alias (pre-1.0 internal name).
_clone_statedb = clone_statedb


def run_fig8a(**kwargs) -> ThroughputResult:
    """Fig. 8(a): network throughput speedup, low contention."""
    config = low_contention_config(
        **kwargs.pop("config_overrides", {})
    )
    return run_blockchain_throughput(
        config, "Fig 8(a): blockchain throughput, low contention", **kwargs
    )


def run_fig8b(**kwargs) -> ThroughputResult:
    """Fig. 8(b): network throughput speedup, high contention."""
    config = high_contention_config(
        **kwargs.pop("config_overrides", {})
    )
    return run_blockchain_throughput(
        config, "Fig 8(b): blockchain throughput, high contention", **kwargs
    )
