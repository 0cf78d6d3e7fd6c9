"""Differential fuzzing: Serial vs DAG vs OCC vs DMVCC across random blocks.

Each fuzz case derives a :class:`~repro.workload.WorkloadConfig` from its
seed — varying user counts, hot-key skew, commutative-increment density
(exchange deposits, liquidity adds, ICO contributions), and abort-inducing
scarcity (small token balances make transfers revert data-dependently) —
generates one block, and runs it through every parallel executor under the
serializability oracle.

On divergence the failing block is shrunk by greedy ddmin-style
minimization (drop chunks, then single transactions, while the divergence
persists), so a failure reproduces as a short, seeded transaction list:

    repro.verify.fuzz reproduces any case from (seed, scheduler) alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..evm.environment import BlockContext
from ..sim.metrics import OracleStats
from .oracle import OracleReport, SerializabilityOracle
from .trace import TraceRecorder

DEFAULT_BASE_SEED = 0xD34DBEEF


@dataclass
class Divergence:
    """One confirmed executor/serial disagreement, minimized."""

    seed: int
    scheduler: str
    threads: int
    report: OracleReport
    block_size: int
    minimized_size: int
    minimized_labels: List[str] = field(default_factory=list)

    def render(self) -> str:
        labels = ", ".join(self.minimized_labels)
        return (
            f"seed={self.seed} scheduler={self.scheduler} "
            f"threads={self.threads} "
            f"minimized {self.block_size}->{self.minimized_size} txs [{labels}]\n"
            + "\n".join(f"    {d}" for d in self.report.divergences)
        )


@dataclass
class CommitMismatch:
    """An overlay-sealed root that differed from the legacy per-key root."""

    seed: int
    overlay_root: str
    legacy_root: str

    def render(self) -> str:
        return (
            f"commit mismatch at seed={self.seed}: "
            f"overlay={self.overlay_root[:16]} != legacy={self.legacy_root[:16]}"
        )


@dataclass
class DurableMismatch:
    """A durable-backend root that differed from the in-memory root, or a
    recovery that failed to reproduce the sealed root byte-for-byte."""

    seed: int
    stage: str        # "commit" or "recovery"
    durable_root: str
    memory_root: str

    def render(self) -> str:
        return (
            f"durable {self.stage} mismatch at seed={self.seed}: "
            f"durable={self.durable_root[:16]} != memory={self.memory_root[:16]}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing campaign."""

    blocks: int = 0
    checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    stats: Dict[str, OracleStats] = field(default_factory=dict)
    commit_checks: int = 0
    commit_mismatches: List[CommitMismatch] = field(default_factory=list)
    durable_checks: int = 0
    durable_mismatches: List[DurableMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.divergences
            and not self.commit_mismatches
            and not self.durable_mismatches
        )

    def render(self) -> str:
        lines = [
            f"fuzzed {self.blocks} block(s), {self.checks} differential "
            f"check(s): {'all serializable' if self.ok else 'DIVERGED'}"
        ]
        lines.append(
            f"  [commit] {self.commit_checks} overlay-vs-legacy root "
            f"check(s), {len(self.commit_mismatches)} mismatch(es)"
        )
        if self.durable_checks:
            lines.append(
                f"  [durable] {self.durable_checks} on-disk-vs-memory root "
                f"check(s) incl. reopen/recovery, "
                f"{len(self.durable_mismatches)} mismatch(es)"
            )
        for name in sorted(self.stats):
            lines.append(f"  [{name}] {self.stats[name].summary()}")
        for mismatch in self.commit_mismatches:
            lines.append("  " + mismatch.render())
        for mismatch in self.durable_mismatches:
            lines.append("  " + mismatch.render())
        for divergence in self.divergences:
            lines.append("  " + divergence.render())
        return "\n".join(lines)


def default_executor_factories() -> Dict[str, Callable[[], object]]:
    from ..executors import EXECUTORS

    return {name: cls for name, cls in EXECUTORS.items() if name != "serial"}


class DifferentialFuzzer:
    """Generate random blocks; compare every executor against serial."""

    def __init__(
        self,
        factories: Optional[Dict[str, Callable[[], object]]] = None,
        txs_per_block: int = 24,
        minimize: bool = True,
        max_minimize_runs: int = 120,
        backend: str = "memory",
        scenarios: Optional[List[str]] = None,
    ) -> None:
        if backend not in ("memory", "durable"):
            raise ValueError(f"unknown backend {backend!r}")
        self.factories = factories if factories is not None else default_executor_factories()
        self.txs_per_block = txs_per_block
        self.minimize = minimize
        self.max_minimize_runs = max_minimize_runs
        self.backend = backend
        if scenarios:
            from ..workload.scenarios import SCENARIOS

            unknown = [s for s in scenarios if s not in SCENARIOS]
            if unknown:
                raise ValueError(
                    f"unknown scenario(s): {', '.join(unknown)} "
                    f"(choose from {', '.join(SCENARIOS)})"
                )
        self.scenarios: List[str] = list(scenarios or [])

    # ------------------------------------------------------------------
    # Case generation
    # ------------------------------------------------------------------

    def _random_config(self, rng: random.Random, seed: int):
        """A small randomized workload: hot-key skew, commutative traffic,
        and data-dependent failures all vary with the seed."""
        from ..workload.generator import WorkloadConfig

        return WorkloadConfig(
            users=rng.randint(4, 24),
            erc20_tokens=rng.randint(1, 3),
            dex_pools=rng.randint(1, 2),
            nft_collections=rng.randint(1, 2),
            icos=1,
            contract_fraction=rng.choice([0.5, 0.7, 0.9]),
            hot_access_prob=rng.choice([0.0, 0.3, 0.8]),
            hot_contract_count=1,
            capped_ico=rng.random() < 0.5,
            exchange_deposit_prob=rng.choice([0.2, 0.8]),
            liquidity_prob=rng.choice([0.2, 0.8]),
            nft_mint_prob=rng.choice([0.2, 0.7]),
            zipf_alpha=rng.choice([0.0, 1.1]),
            # Scarce balances make transfer/swap success data-dependent on
            # earlier transactions in the block: abort-inducing branches.
            token_funds=rng.choice([300, 2_000, 10**12]),
            seed=seed,
        )

    def case(self, seed: int):
        """Deterministically regenerate a fuzz case from its seed alone:
        ``(workload, txs, threads)``.  Public so failure artifacts (oracle
        reports, execution traces) can be reproduced outside a campaign."""
        from ..workload.generator import Workload

        rng = random.Random(seed)
        config = self._random_config(rng, seed)
        if self.scenarios:
            # Overlay one of the adversarial scenario presets on the
            # randomized base config, keeping everything else seeded.
            import dataclasses

            from ..workload.scenarios import scenario_config

            preset = scenario_config(rng.choice(self.scenarios))
            config = dataclasses.replace(
                config,
                scenario=preset.scenario,
                scenario_fraction=preset.scenario_fraction,
            )
        workload = Workload(config)
        txs = workload.transactions(self.txs_per_block)
        threads = rng.choice([2, 3, 4, 8])
        return workload, txs, threads

    # Backwards-compatible internal alias.
    _case = case

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    @staticmethod
    def _run_pair(executor, txs, snapshot, resolver, threads, block, serial_out):
        recorder = TraceRecorder()
        executor.recorder = recorder
        parallel = executor.execute_block(
            txs, snapshot, resolver, threads=threads, block=block
        )
        oracle = SerializabilityOracle(snapshot_get=snapshot.get)
        report = oracle.check(
            trace=recorder,
            parallel_writes=parallel.writes,
            parallel_receipts=parallel.receipts,
            serial_writes=serial_out.writes,
            serial_receipts=serial_out.receipts,
            scheduler=getattr(executor, "name", "?"),
        )
        return report

    def _check_once(self, name, txs, snapshot, resolver, threads, block):
        """Run scheduler ``name`` on ``txs`` against a fresh serial
        reference; returns the oracle report."""
        from ..executors.serial import SerialExecutor

        serial_out = SerialExecutor().execute_block(
            txs, snapshot, resolver, threads=1, block=block
        )
        executor = self.factories[name]()
        return self._run_pair(
            executor, txs, snapshot, resolver, threads, block, serial_out
        )

    def _minimize(self, name, txs, snapshot, resolver, threads, block):
        """Greedy shrink: keep removing chunks while the divergence holds."""
        runs = 0
        chunk = max(len(txs) // 2, 1)
        while chunk >= 1 and runs < self.max_minimize_runs:
            shrunk = False
            start = 0
            while start < len(txs) and runs < self.max_minimize_runs:
                candidate = txs[:start] + txs[start + chunk:]
                if not candidate:
                    start += chunk
                    continue
                runs += 1
                if not self._check_once(
                    name, candidate, snapshot, resolver, threads, block
                ).ok:
                    txs = candidate
                    shrunk = True
                else:
                    start += chunk
            if not shrunk or chunk == 1:
                if chunk == 1:
                    break
            chunk = max(chunk // 2, 1)
        return txs

    # ------------------------------------------------------------------
    # Commit-path differential
    # ------------------------------------------------------------------

    @staticmethod
    def _check_commit(workload, writes, seed, report, progress) -> None:
        """Seal the block's write batch through both commit paths — the
        dirty-node overlay and the legacy per-key trie inserts — on forks of
        the same StateDB, and assert the roots are byte-identical."""
        overlay_root = workload.db.fork().commit(writes).root_hash
        legacy_root = workload.db.fork().commit(writes, legacy=True).root_hash
        report.commit_checks += 1
        if overlay_root != legacy_root:
            report.commit_mismatches.append(CommitMismatch(
                seed=seed,
                overlay_root=overlay_root.hex(),
                legacy_root=legacy_root.hex(),
            ))
            if progress is not None:
                progress(f"commit-path root mismatch at seed {seed}")

    @staticmethod
    def _check_durable(workload, writes, seed, report, progress) -> None:
        """Seal the same contents through the on-disk engine in a scratch
        directory and assert three roots agree byte-for-byte: the durable
        root, the in-memory root, and the root recovered by reopening the
        store (a full log replay)."""
        import shutil
        import tempfile

        from ..core.encoding import encode_int
        from ..db.engine import DurableBackend
        from ..trie.mpt import NodeStore, Trie

        memory_root = workload.db.fork().commit(writes).root_hash
        tmp = tempfile.mkdtemp(prefix="repro-verify-db-")
        try:
            store = NodeStore(DurableBackend(tmp))
            trie = Trie(store)
            trie.commit_batch(workload.db.latest.items())
            store.commit_root(trie.root, 0)
            trie.commit_batch(
                (k.trie_key(), encode_int(v)) for k, v in writes.items()
            )
            store.commit_root(trie.root, 1)
            durable_root = trie.root_hash
            store.close()
            report.durable_checks += 1
            if durable_root != memory_root:
                report.durable_mismatches.append(DurableMismatch(
                    seed=seed, stage="commit",
                    durable_root=durable_root.hex(),
                    memory_root=memory_root.hex(),
                ))
                if progress is not None:
                    progress(f"durable commit root mismatch at seed {seed}")
                return
            reopened = DurableBackend(tmp)
            recovered = reopened.roots[-1][1]
            recovered_trie = Trie(NodeStore(reopened), recovered)
            recovered_root = recovered_trie.root_hash
            # Recovery must also leave every node reachable, not just the
            # root hash intact.
            for _ in recovered_trie.items():
                pass
            reopened.close()
            if recovered_root != memory_root:
                report.durable_mismatches.append(DurableMismatch(
                    seed=seed, stage="recovery",
                    durable_root=recovered_root.hex(),
                    memory_root=memory_root.hex(),
                ))
                if progress is not None:
                    progress(f"durable recovery root mismatch at seed {seed}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------

    def run(
        self,
        blocks: int,
        base_seed: int = DEFAULT_BASE_SEED,
        progress: Optional[Callable[[str], None]] = None,
    ) -> FuzzReport:
        from ..executors.serial import SerialExecutor

        report = FuzzReport()
        for name in self.factories:
            report.stats[name] = OracleStats()
        block_ctx = BlockContext()
        for i in range(blocks):
            seed = base_seed + i
            workload, txs, threads = self._case(seed)
            snapshot = workload.db.latest
            resolver = workload.db.codes.code_of
            serial_out = SerialExecutor().execute_block(
                txs, snapshot, resolver, threads=1, block=block_ctx
            )
            report.blocks += 1
            self._check_commit(workload, serial_out.writes, seed, report, progress)
            if self.backend == "durable":
                self._check_durable(
                    workload, serial_out.writes, seed, report, progress
                )
            for name in self.factories:
                executor = self.factories[name]()
                verdict = self._run_pair(
                    executor, txs, snapshot, resolver, threads, block_ctx,
                    serial_out,
                )
                report.checks += 1
                report.stats[name].merge_from(verdict.stats)
                if verdict.ok:
                    continue
                minimized = txs
                if self.minimize:
                    minimized = self._minimize(
                        name, txs, snapshot, resolver, threads, block_ctx
                    )
                    verdict = self._check_once(
                        name, minimized, snapshot, resolver, threads, block_ctx
                    )
                report.divergences.append(Divergence(
                    seed=seed,
                    scheduler=name,
                    threads=threads,
                    report=verdict,
                    block_size=len(txs),
                    minimized_size=len(minimized),
                    minimized_labels=[tx.label for tx in minimized],
                ))
                if progress is not None:
                    progress(f"divergence at seed {seed} [{name}]")
            if progress is not None and (i + 1) % 10 == 0:
                progress(f"{i + 1}/{blocks} blocks fuzzed")
        return report
