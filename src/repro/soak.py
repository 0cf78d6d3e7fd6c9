"""Long-running soak harness: thousands of adversarial blocks, online
invariants, and mid-stream crash-recovery.

The paper's evaluation (and our benches) replays blocks; this module
*soaks*: it streams the adversarial scenario pack
(:mod:`repro.workload.scenarios`) through a full validator over the
durable storage engine for thousands of blocks, with every production
subsystem engaged at once —

* **online invariants** (:mod:`repro.verify.online`) — every block is
  oracle-checked against a fresh serial run over the same pre-state, and
  every sealed root must equal the in-memory twin's (PR 1's oracle and the
  PR-5 durable-vs-memory differential as *continuous* invariants);
* **mid-stream crash injection** — at scheduled blocks the durable store
  is reopened with a :class:`~repro.db.faults.FaultPlan` armed to kill the
  log mid-append; after the induced :class:`InjectedCrash` the store is
  recovered (log replay + torn-tail truncation), its root and height are
  asserted byte-identical to the twin's, and the validator *adopts the
  recovered store and keeps going* — recovery-and-continue, not
  recovery-and-stop;
* **periodic compaction** — stale snapshots are pruned on a fixed cadence
  so db growth vs. reclaim is measured over the whole run.

Soak-level metrics (blocks/s, abort-rate trend, db growth/reclaim, oracle
latency) are emitted as :class:`~repro.obs.SoakCheckpoint` events and
summarized in a stamped JSON report (``repro.bench.reporting``).

``python -m repro soak --blocks 1000 --crashes 3 --backend durable`` is
the acceptance run; CI soaks a scaled-down variant on every push.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .chain.validator import Validator
from .db.faults import FaultPlan, InjectedCrash
from .executors import executor_for
from .state.statedb import StateDB
from .verify.online import InvariantCounts, OnlineInvariants
from .workload.generator import Workload
from .workload.scenarios import scenario_config

DEFAULT_CRASH_WINDOW = 4096  # byte budget ceiling for an injected crash


@dataclass
class SoakSample:
    """One checkpoint of the soak's trend metrics."""

    block: int
    blocks_per_sec: float
    abort_rate: float           # over the window since the last sample
    db_bytes: int               # cumulative bytes appended to the log
    bytes_reclaimed: int        # cumulative bytes reclaimed by compaction
    oracle_time: float          # seconds the oracle spent this window
    crashes: int                # injected crashes recovered so far

    def as_dict(self) -> dict:
        return {
            "block": self.block,
            "blocks_per_sec": round(self.blocks_per_sec, 3),
            "abort_rate": round(self.abort_rate, 4),
            "db_bytes": self.db_bytes,
            "bytes_reclaimed": self.bytes_reclaimed,
            "oracle_time": round(self.oracle_time, 4),
            "crashes": self.crashes,
        }


@dataclass
class SoakReport(InvariantCounts):
    """Aggregate outcome of one soak run."""

    blocks: int = 0
    txs: int = 0
    scheduler: str = ""
    scenario: str = ""
    backend: str = "durable"
    threads: int = 8
    seed: int = 0
    elapsed: float = 0.0
    aborts: int = 0
    executions: int = 0
    deterministic_failures: int = 0
    crashes_scheduled: int = 0
    crashes_fired: int = 0
    crash_survivals: int = 0      # byte budget outlived the append
    recoveries_ok: int = 0
    recovery_failures: List[str] = field(default_factory=list)
    compactions: int = 0
    db_bytes_appended: int = 0
    db_bytes_reclaimed: int = 0
    samples: List[SoakSample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.oracle_violations
            or self.root_mismatches
            or self.recovery_failures
        )

    @property
    def blocks_per_sec(self) -> float:
        return self.blocks / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.executions if self.executions else 0.0

    def render(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"soak [{self.scheduler}/{self.scenario}/{self.backend}]: "
            f"{self.blocks} block(s), {self.txs} tx(s) in {self.elapsed:.1f}s "
            f"({self.blocks_per_sec:.2f} blocks/s): {verdict}",
            f"  aborts: {self.aborts}/{self.executions} attempts "
            f"(rate {self.abort_rate:.3f}), "
            f"{self.deterministic_failures} deterministic revert(s)",
            *self.invariant_lines(),
            f"  crashes: {self.crashes_scheduled} scheduled, "
            f"{self.crashes_fired} fired mid-append, "
            f"{self.crash_survivals} outlived the budget, "
            f"{self.recoveries_ok} recovered byte-identical",
            f"  db: {self.db_bytes_appended} bytes appended, "
            f"{self.db_bytes_reclaimed} reclaimed over "
            f"{self.compactions} compaction(s)",
        ]
        for detail in (
            self.oracle_violations[:5]
            + self.root_mismatches[:5]
            + self.recovery_failures[:5]
        ):
            lines.append(f"    {detail}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "config": {
                "blocks": self.blocks,
                "scheduler": self.scheduler,
                "scenario": self.scenario,
                "backend": self.backend,
                "threads": self.threads,
                "seed": self.seed,
            },
            "totals": {
                "txs": self.txs,
                "elapsed_s": round(self.elapsed, 2),
                "blocks_per_sec": round(self.blocks_per_sec, 3),
                "aborts": self.aborts,
                "executions": self.executions,
                "abort_rate": round(self.abort_rate, 4),
                "deterministic_failures": self.deterministic_failures,
                "oracle_checks": self.oracle_checks,
                "oracle_violations": len(self.oracle_violations),
                "oracle_time_s": round(self.oracle_time, 2),
                "root_parity_checks": self.root_parity_checks,
                "root_mismatches": len(self.root_mismatches),
                "crashes_scheduled": self.crashes_scheduled,
                "crashes_fired": self.crashes_fired,
                "crash_survivals": self.crash_survivals,
                "recoveries_ok": self.recoveries_ok,
                "recovery_failures": len(self.recovery_failures),
                "compactions": self.compactions,
                "db_bytes_appended": self.db_bytes_appended,
                "db_bytes_reclaimed": self.db_bytes_reclaimed,
            },
            "failures": {
                "oracle": self.oracle_violations,
                "root_parity": self.root_mismatches,
                "recovery": self.recovery_failures,
            },
            "samples": [sample.as_dict() for sample in self.samples],
            "ok": self.ok,
        }


class _SoakRun:
    """State of one soak: validator, twin, crash schedule, accounting."""

    def __init__(
        self,
        blocks: int,
        txs_per_block: int,
        crashes: int,
        backend: str,
        scenario: str,
        scheduler: str,
        threads: int,
        seed: int,
        compact_every: int,
        checkpoint_every: int,
        durable_dir: Optional[str],
        workload_overrides: Dict,
        obs,
        progress: Optional[Callable[[str], None]],
    ) -> None:
        if backend not in ("memory", "durable"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "memory" and crashes:
            raise ValueError("crash injection needs --backend durable")
        self.blocks = blocks
        self.txs_per_block = txs_per_block
        self.backend = backend
        self.threads = threads
        self.compact_every = compact_every
        self.checkpoint_every = max(1, checkpoint_every)
        self.obs = obs
        self.progress = progress
        self.report = SoakReport(
            scheduler=scheduler, scenario=scenario, backend=backend,
            threads=threads, seed=seed,
        )
        config = scenario_config(scenario, seed=seed, **workload_overrides)
        self.workload = Workload(config)
        self.twin = self.workload.db          # in-memory root-parity twin
        self.rng = random.Random(seed ^ 0x50AC)   # harness-side randomness
        self.crash_blocks = self._schedule_crashes(crashes)
        self.report.crashes_scheduled = len(self.crash_blocks)
        self._own_dir = durable_dir is None
        if backend == "durable":
            self.dir = durable_dir or tempfile.mkdtemp(prefix="repro-soak-")
            db = self.twin.mirror_durable(self.dir)
        else:
            self.dir = None
            db = self.twin.fork()
        self.validator = Validator(
            "soak", db, executor_for(scheduler), threads=threads,
        )
        self.invariants = OnlineInvariants(
            self.report, self.twin, self.validator.executor)

    def _schedule_crashes(self, crashes: int) -> List[int]:
        if not crashes:
            return []
        # Never the first or last block: a crash must land mid-stream with
        # committed history behind it and resumed traffic ahead of it.
        eligible = range(2, max(3, self.blocks))
        count = min(crashes, len(eligible))
        return sorted(self.rng.sample(eligible, count))

    # -- one block ------------------------------------------------------

    def _execute_block(self, txs, number: int):
        """Feed, propose, oracle-check, and twin-commit one block.
        Raises :class:`InjectedCrash` out of the commit when armed."""
        validator = self.validator
        pre = validator.db.latest
        for tx in txs:
            validator.receive_transaction(tx)
        block, execution = validator.propose_block(timestamp=number)
        report = self.report
        report.aborts += execution.metrics.aborts
        report.executions += execution.metrics.executions
        report.deterministic_failures += execution.metrics.deterministic_failures
        report.db_bytes_appended += execution.metrics.db_bytes_appended
        self.invariants.check_block(
            number, pre, block.transactions, execution)
        self.invariants.check_sealed(validator.chain)
        return execution

    # -- crash-recovery cycle ------------------------------------------

    def _crash_cycle(self, txs, number: int) -> None:
        """Execute block ``number`` under an armed fault plan; on crash,
        recover the store, assert byte-identical state, and continue."""
        report = self.report
        validator = self.validator
        validator.db.close()
        offset = self.rng.randint(1, DEFAULT_CRASH_WINDOW)
        wounded = StateDB.open(
            self.dir, faults=FaultPlan(crash_after_bytes=offset)
        )
        wounded.codes = self.twin.codes
        validator.adopt_statedb(wounded)
        try:
            self._execute_block(txs, number)
            report.crash_survivals += 1
            crashed = False
        except InjectedCrash:
            crashed = True
            self.invariants.rearm()   # drop the dead block's trace
        # Simulated process death: the wounded handle is abandoned unclosed
        # either way; a clean reopen replays the log and truncates any torn
        # tail, exactly like a restart after power loss.
        recovered = StateDB.open(self.dir)
        recovered.codes = self.twin.codes
        expected_height = self.twin.height
        expected_root = self.twin.latest.root_hash
        if recovered.height != expected_height:
            report.recovery_failures.append(
                f"block {number}: recovered height {recovered.height}, "
                f"expected {expected_height}"
            )
        elif recovered.latest.root_hash != expected_root:
            report.recovery_failures.append(
                f"block {number}: recovered root "
                f"{recovered.latest.root_hash.hex()[:16]} != twin "
                f"{expected_root.hex()[:16]}"
            )
        else:
            report.recoveries_ok += 1
        validator.adopt_statedb(recovered)
        if crashed:
            report.crashes_fired += 1
            # Recovery-and-continue: the crashed block's transactions are
            # re-fed and the block is proposed again on the healed store.
            self._execute_block(txs, number)
        if self.progress is not None:
            mode = "fired" if crashed else "outlived"
            self.progress(
                f"crash at block {number}: budget {offset}B {mode}, "
                f"recovered to height {recovered.height}"
            )

    # -- the loop -------------------------------------------------------

    def run(self) -> SoakReport:
        report = self.report
        started = time.perf_counter()
        window_started = started
        window_blocks = 0
        window_aborts = 0
        window_execs = 0
        window_oracle = 0.0      # report.oracle_time when the window opened
        crash_schedule = set(self.crash_blocks)
        try:
            for index in range(self.blocks):
                number = self.validator.height + 1
                txs = self.workload.transactions(self.txs_per_block)
                aborts_before = report.aborts
                execs_before = report.executions
                if index in crash_schedule:
                    self._crash_cycle(txs, number)
                else:
                    self._execute_block(txs, number)
                report.blocks += 1
                report.txs += len(txs)
                window_blocks += 1
                window_aborts += report.aborts - aborts_before
                window_execs += report.executions - execs_before
                if self.compact_every and (index + 1) % self.compact_every == 0 \
                        and self.backend == "durable":
                    compaction = self.validator.db.compact()
                    report.compactions += 1
                    report.db_bytes_reclaimed += compaction.bytes_reclaimed
                if (index + 1) % self.checkpoint_every == 0 \
                        or index + 1 == self.blocks:
                    now = time.perf_counter()
                    span = max(now - window_started, 1e-9)
                    sample = SoakSample(
                        block=number,
                        blocks_per_sec=window_blocks / span,
                        abort_rate=(
                            window_aborts / window_execs if window_execs else 0.0
                        ),
                        db_bytes=report.db_bytes_appended,
                        bytes_reclaimed=report.db_bytes_reclaimed,
                        oracle_time=report.oracle_time - window_oracle,
                        crashes=report.crashes_fired,
                    )
                    report.samples.append(sample)
                    if self.obs is not None:
                        self.obs.soak_checkpoint(
                            0.0, number,
                            blocks_per_sec=sample.blocks_per_sec,
                            abort_rate=sample.abort_rate,
                            db_bytes=sample.db_bytes,
                            bytes_reclaimed=sample.bytes_reclaimed,
                            oracle_time=sample.oracle_time,
                            crashes=sample.crashes,
                        )
                    if self.progress is not None:
                        self.progress(
                            f"block {number}/{self.blocks}: "
                            f"{sample.blocks_per_sec:.2f} blocks/s, "
                            f"abort rate {sample.abort_rate:.3f}, "
                            f"db {sample.db_bytes}B (+{sample.bytes_reclaimed}B "
                            f"reclaimed), {sample.crashes} crash(es)"
                        )
                    window_started = now
                    window_blocks = window_aborts = window_execs = 0
                    window_oracle = report.oracle_time
        finally:
            report.elapsed = time.perf_counter() - started
            self.validator.db.close()
            if self.backend == "durable" and self._own_dir:
                shutil.rmtree(self.dir, ignore_errors=True)
        return report


def run_soak(
    blocks: int = 1_000,
    txs_per_block: int = 64,
    crashes: int = 3,
    backend: str = "durable",
    scenario: str = "mix",
    scheduler: str = "dmvcc",
    threads: int = 8,
    seed: int = 2023,
    compact_every: int = 50,
    checkpoint_every: int = 25,
    durable_dir: Optional[str] = None,
    workload_overrides: Optional[Dict] = None,
    obs=None,
    progress: Optional[Callable[[str], None]] = None,
    report_path: Optional[str] = None,
) -> SoakReport:
    """Run one soak; see the module docstring.

    ``durable_dir`` pins the on-disk store to a caller-owned directory
    (kept afterwards); by default a temp directory is used and removed.
    ``report_path`` writes the stamped JSON report there on completion —
    including when invariants failed, so CI can upload it as an artifact.
    """
    run = _SoakRun(
        blocks=blocks,
        txs_per_block=txs_per_block,
        crashes=crashes,
        backend=backend,
        scenario=scenario,
        scheduler=scheduler,
        threads=threads,
        seed=seed,
        compact_every=compact_every,
        checkpoint_every=checkpoint_every,
        durable_dir=durable_dir,
        workload_overrides=workload_overrides or {},
        obs=obs,
        progress=progress,
    )
    report = run.run()
    if report_path:
        from .bench.reporting import save_results_json

        save_results_json(report_path, report.as_dict())
    return report
