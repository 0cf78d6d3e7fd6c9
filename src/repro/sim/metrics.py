"""Execution metrics shared by every executor and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class TxMetrics:
    """Per-transaction scheduling outcome."""

    index: int
    attempts: int = 1
    start_time: float = 0.0
    end_time: float = 0.0
    gas_used: int = 0
    succeeded: bool = True
    aborted_times: int = 0
    # Incremental re-execution accounting (DMVCC checkpoint/resume):
    instructions_executed: int = 0   # dispatched across every attempt
    instructions_final: int = 0      # the committed attempt's logical path
    instructions_skipped: int = 0    # avoided via resume / revalidation
    resumes: int = 0                 # aborts recovered from a VM checkpoint
    revalidation_hits: int = 0       # aborts recovered with zero re-execution

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time

    @property
    def replayed_instructions(self) -> int:
        """Instructions spent re-doing work an earlier attempt already did."""
        return max(self.instructions_executed - self.instructions_final, 0)


@dataclass
class OracleStats:
    """Counters from serializability-oracle checks (repro.verify.oracle).

    ``doomed_reads`` counts reads that observed a version later retracted
    (early-write visibility exposing a write its transaction then took
    back); ``repaired_reads`` are the subset whose reader was aborted and
    re-executed afterwards — normal protocol repair.  ``unrepaired_violations``
    are doomed reads that survived into a committed attempt: hard safety
    failures.
    """

    blocks_checked: int = 0
    reads_checked: int = 0
    conflict_edges: int = 0
    early_publishes: int = 0
    doomed_reads: int = 0
    repaired_reads: int = 0
    unrepaired_violations: int = 0
    stale_reads: int = 0
    divergences: int = 0

    def merge_from(self, other: "OracleStats") -> None:
        self.blocks_checked += other.blocks_checked
        self.reads_checked += other.reads_checked
        self.conflict_edges += other.conflict_edges
        self.early_publishes += other.early_publishes
        self.doomed_reads += other.doomed_reads
        self.repaired_reads += other.repaired_reads
        self.unrepaired_violations += other.unrepaired_violations
        self.stale_reads += other.stale_reads
        self.divergences += other.divergences

    def summary(self) -> str:
        return (
            f"oracle: blocks={self.blocks_checked} reads={self.reads_checked} "
            f"edges={self.conflict_edges} early={self.early_publishes} "
            f"doomed={self.doomed_reads} (repaired={self.repaired_reads}, "
            f"unrepaired={self.unrepaired_violations}) "
            f"stale={self.stale_reads} divergences={self.divergences}"
        )


@dataclass
class BlockMetrics:
    """Result of executing one block under some scheduler."""

    scheduler: str
    threads: int
    tx_count: int = 0
    makespan: float = 0.0
    serial_time: float = 0.0
    total_gas: int = 0
    executions: int = 0       # total execution attempts (incl. re-executions)
    aborts: int = 0           # scheduler-induced (non-deterministic) aborts
    deterministic_failures: int = 0  # reverts/asserts/oog: the contract's own doing
    rescues: int = 0          # scheduler wake-loss recoveries (should be 0)
    utilisation: float = 0.0
    # Execution-substrate accounting (repro.substrate): which backend the
    # block actually ran on and what it cost in *wall* seconds (the sim
    # backend parallelises in gas time; real backends in wall time).
    backend: str = "sim"
    workers: int = 0                  # real worker count (0 on the sim backend)
    wall_time: float = 0.0            # wall seconds executing the block
    view_misses: int = 0              # reads outside a shipped view (re-dispatches)
    worker_crashes: int = 0           # workers lost and respawned mid-block
    replayed: bool = False            # executed from a sealed Schedule artifact
    seeded_views: int = 0             # dispatch views pre-seeded from static analysis
    # Incremental re-execution totals (sums of the per_tx counters):
    replayed_instructions: int = 0
    instructions_skipped: int = 0
    resumes: int = 0
    revalidation_hits: int = 0
    # Declared-operation merge algebra (repro.state.merge):
    merge_intents: int = 0            # delta intents logged on declared keys
    merge_tolerated: int = 0          # aborts skipped by outcome-stable guards
    # Sharded execution (repro.shard):
    shards: int = 0                   # shard count (0 ≡ unsharded)
    cross_shard_txs: int = 0          # transactions spanning >1 shard
    handoff_requeues: int = 0         # phase-2 handoffs aborted and requeued
    shard_fallbacks: int = 0          # blocks re-run unsharded (escape detected)
    # State-layer accounting (filled by the validator around commit):
    commit_time: float = 0.0          # wall seconds sealing the snapshot
    commit_hashes: int = 0            # node-hash invocations in the commit
    commit_nodes_sealed: int = 0      # trie nodes persisted by the commit
    flat_hits: int = 0                # snapshot reads served by the flat/LRU cache
    flat_misses: int = 0              # snapshot reads that walked the trie
    # Durable-backend accounting (zero when the StateDB runs in-memory):
    db_bytes_appended: int = 0        # log bytes this block's commit appended
    db_fsync_time: float = 0.0        # wall seconds inside fsync at the marker
    db_cache_hits: int = 0            # node-cache hits since the previous marker
    db_cache_misses: int = 0          # node-cache misses (disk reads)
    db_pruned_nodes: int = 0          # nodes reclaimed by auto-compaction
    per_tx: List[TxMetrics] = field(default_factory=list)
    oracle: Optional[OracleStats] = None  # set when a verify pass ran

    @property
    def speedup(self) -> float:
        """Speedup over serial execution of the same block."""
        if self.makespan <= 0:
            return 1.0
        return self.serial_time / self.makespan

    @property
    def abort_rate(self) -> float:
        """Fraction of execution attempts that were aborted and redone."""
        if self.executions == 0:
            return 0.0
        return self.aborts / self.executions

    def merge_from(self, other: "BlockMetrics") -> None:
        """Accumulate another block's numbers (for multi-block averages)."""
        self.tx_count += other.tx_count
        self.makespan += other.makespan
        self.serial_time += other.serial_time
        self.total_gas += other.total_gas
        self.executions += other.executions
        self.aborts += other.aborts
        self.deterministic_failures += other.deterministic_failures
        self.rescues += other.rescues
        self.replayed = self.replayed or other.replayed
        self.seeded_views += other.seeded_views
        self.replayed_instructions += other.replayed_instructions
        self.instructions_skipped += other.instructions_skipped
        self.resumes += other.resumes
        self.revalidation_hits += other.revalidation_hits
        self.merge_intents += other.merge_intents
        self.merge_tolerated += other.merge_tolerated
        self.shards = max(self.shards, other.shards)
        self.cross_shard_txs += other.cross_shard_txs
        self.handoff_requeues += other.handoff_requeues
        self.shard_fallbacks += other.shard_fallbacks
        self.commit_time += other.commit_time
        self.commit_hashes += other.commit_hashes
        self.commit_nodes_sealed += other.commit_nodes_sealed
        self.flat_hits += other.flat_hits
        self.flat_misses += other.flat_misses
        self.db_bytes_appended += other.db_bytes_appended
        self.db_fsync_time += other.db_fsync_time
        self.db_cache_hits += other.db_cache_hits
        self.db_cache_misses += other.db_cache_misses
        self.db_pruned_nodes += other.db_pruned_nodes
        if other.backend != "sim":
            self.backend = other.backend
            self.workers = max(self.workers, other.workers)
        self.wall_time += other.wall_time
        self.view_misses += other.view_misses
        self.worker_crashes += other.worker_crashes

    @property
    def flat_hit_rate(self) -> float:
        """Fraction of snapshot reads served without a trie walk."""
        total = self.flat_hits + self.flat_misses
        return self.flat_hits / total if total else 0.0

    def summary(self) -> str:
        return (
            f"{self.scheduler:>8} | threads={self.threads:<3d} txs={self.tx_count:<6d} "
            f"speedup={self.speedup:6.2f}x  aborts={self.aborts:<5d} "
            f"abort_rate={self.abort_rate:6.2%}  util={self.utilisation:6.2%}"
        )


def aggregate(blocks: List[BlockMetrics]) -> BlockMetrics:
    """Combine per-block metrics into workload totals (speedup uses summed
    serial time over summed makespan, i.e. the paper's 'average over all
    blocks' weighted by work)."""
    if not blocks:
        raise ValueError("no block metrics to aggregate")
    total = BlockMetrics(scheduler=blocks[0].scheduler, threads=blocks[0].threads)
    for b in blocks:
        total.merge_from(b)
    busy = sum(b.utilisation * b.makespan * b.threads for b in blocks)
    denominator = total.makespan * total.threads
    total.utilisation = busy / denominator if denominator else 0.0
    return total
