"""The procedure of one run: set-up, laps, replay, checks, estimates.

All work is fixed by the workload, the sizes and the seed, never by the
clock.  Correctness is counted as failed transactions over transactions
offered; any failure makes the worker's exit code non-zero.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from typing import Dict, List, Optional, Sequence

import estimator
from harness import (
    Lap, Replay, SetUp, corrupt_root, fingerprint, reopen_matches, replay,
    run_lap, set_up, slots_of,
)
from workloads import WORKLOADS, Sizes


class Failures:
    """Failed transactions, by the check that caught them."""

    def __init__(self) -> None:
        self.by_check: Counter = Counter()

    def add(self, check: str, txs: int) -> None:
        if txs:
            self.by_check[check] += txs

    @property
    def total(self) -> int:
        return sum(self.by_check.values())


class Run:
    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: str,
                 smoke: bool, corrupt: bool, traced: bool) -> None:
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.smoke = smoke
        self.corrupt = corrupt
        self.traced = traced
        self.failures = Failures()
        self.attempted = 0
        self.setup: Optional[SetUp] = None
        self.setups_s: List[float] = []
        self.reference = None            # sealed blocks of the first lap
        self.reference_print = None
        self.saturated: Dict[str, List[Lap]] = {"dmvcc": [], "serial": []}
        self.paced: List[Lap] = []
        self.backlogged: List[str] = []  # paced laps that fell a slot behind
        self.last_directory = ""
        self._lap_no = 0

    # -- set-up ------------------------------------------------------------

    def set_up(self, times: int) -> None:
        """Set up ``times`` times from scratch; keep the last.  Genesis roots
        and transaction lists must be identical every time."""
        digest = None
        for attempt in range(times):
            self.setup = None
            gc.collect()
            directory = os.path.join(self.workdir, f"genesis-{attempt}")
            setup = set_up(self.spec, self.seed, self.sizes.blocks, self.smoke, directory)
            self.setups_s.append(setup.seconds)
            this = (setup.genesis_root, [tx.tx_hash for tx in setup.txs],
                    setup.workload.db.latest.root_hash)
            if digest is not None and this != digest:
                raise RuntimeError("two set-ups of one seed differ")
            if this[0] != this[2]:
                raise RuntimeError("durable mirror root differs from genesis")
            digest = this
            if attempt + 1 < times:
                shutil.rmtree(directory)
            self.setup = setup

    # -- laps --------------------------------------------------------------

    def lap(self, scheduler: str, kind: str, **options) -> Lap:
        self._lap_no += 1
        label = f"{kind}-{scheduler}-{self._lap_no}"
        directory = os.path.join(self.workdir, label)
        if self.last_directory:
            shutil.rmtree(self.last_directory, ignore_errors=True)
        lap, sealed = run_lap(
            self.setup, scheduler, label, directory, blocks=self.sizes.blocks,
            collect_metrics=self.traced, **options,
        )
        self.last_directory = directory
        self.attempted += len(self.setup.txs)
        self.failures.add("pool_rejected", lap.report.pool.rejected_total)
        if self.reference is None:
            self.reference = sealed
            self._check_sealed_once(sealed)
            if self.corrupt:
                victim = len(sealed) // 2
                self.reference[victim] = corrupt_root(sealed[victim])
            self.reference_print = fingerprint(self.reference)
        self._check_same_chain(lap)
        return lap

    def _check_sealed_once(self, sealed) -> None:
        """Every offered transaction sealed exactly once."""
        offered = Counter(tx.tx_hash for tx in self.setup.txs)
        got = Counter(tx.tx_hash for block in sealed for tx in block.transactions)
        wrong = sum((offered - got).values()) + sum((got - offered).values())
        self.failures.add("sealed_exactly_once", wrong)

    def _check_same_chain(self, lap: Lap) -> None:
        """Every lap of either scheduler seals the reference chain, block by
        block: state roots and transaction lists."""
        reference = self.reference_print
        per_block = self.spec.txs_per_block
        differing = sum(
            1 for mine, theirs in zip(lap.fingerprint, reference) if mine != theirs
        ) + abs(len(lap.fingerprint) - len(reference))
        self.failures.add("chain_differs", differing * per_block)

    def saturated_laps(self, traced_pairs: Sequence[int] = ()) -> None:
        """K lap pairs, the order alternating (dmvcc, serial), (serial,
        dmvcc), ...: closed loop, one client - the stream lane pulls whenever
        the pool has room."""
        for pair in range(self.sizes.lap_pairs):
            order = ("dmvcc", "serial") if pair % 2 == 0 else ("serial", "dmvcc")
            for scheduler in order:
                lap = self.lap(scheduler, "sat", traced=pair in traced_pairs)
                self.saturated[scheduler].append(lap)
                note(f"{lap.label}: {lap.txs / lap.elapsed:9.1f} tx/s")

    def paced_laps(self) -> None:
        """P dmvcc laps, open loop: slot ``i`` is released at ``i * period``
        whatever the node is doing."""
        slots = slots_of(self.reference, self.setup.txs)
        for _ in range(self.sizes.paced_laps):
            lap = self.lap("dmvcc", "paced", paced_slots=slots)
            self.paced.append(lap)
            latencies = slot_latencies(lap)
            quarter = max(1, len(latencies) // 4)
            behind = statistics.median(lap.late[-quarter:])
            note(f"{lap.label}: slot latency p50 "
                 f"{estimator.percentile(latencies, 50) * 1e3:.1f} ms; the source ran "
                 f"{behind * 1e3:.1f} ms late over the last quarter")
            if behind > self.spec.slot_period_s:
                # By the last quarter the node is a whole slot behind the
                # schedule: it did not sustain the rate during this lap.  That
                # is the host's speed, not a wrong output, so it is recorded
                # and not counted as failed; the per-slot estimate across the
                # paced laps takes the lap that kept up.
                self.backlogged.append(lap.label)
                note(f"{lap.label}: BACKLOG, more than one slot "
                     f"({self.spec.slot_period_s * 1e3:.0f} ms) behind")

    # -- after the laps ----------------------------------------------------

    def replay(self) -> Replay:
        out = replay(self.setup, self.reference)
        self.attempted += len(self.setup.txs)
        self.failures.add("replay_root_mismatch", out.unverified_txs)
        return out

    def check_reopen(self) -> float:
        ok, seconds = reopen_matches(self.last_directory, self.reference)
        if not ok:
            self.failures.add("durable_reopen", len(self.setup.txs))
        return seconds

    # -- estimates ---------------------------------------------------------

    def quiet_tx_per_s(self, scheduler: str) -> float:
        laps = self.saturated[scheduler]
        seconds = estimator.quiet_seconds(
            [estimator.intervals(lap.start, lap.stamps) for lap in laps]
        )
        return laps[0].txs / seconds

    def quiet_latencies_ms(self) -> List[float]:
        """Per slot (every transaction of a slot shares its due time and its
        block), the lower quartile across the paced laps."""
        per_lap = [slot_latencies(lap) for lap in self.paced]
        return [value * 1e3 for value in estimator.quiet_intervals(per_lap)]


def slot_latencies(lap: Lap) -> List[float]:
    """Seconds from each slot's due time to the persist stamp of its block."""
    return [stamp - due for stamp, due in zip(lap.stamps, lap.due)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def untraced(run: Run) -> Dict[str, float]:
    # Twice only at smoke size: see README, "What the time cap cost".
    run.set_up(times=2 if run.smoke else 1)
    run.saturated_laps()
    run.paced_laps()
    replayed = run.replay()
    run.check_reopen()
    latencies = run.quiet_latencies_ms()
    note(f"latency samples: {len(latencies)} slots, "
         f"{estimator.samples_beyond(len(latencies), 50)} beyond p50")
    return {
        "tx_per_s.dmvcc": run.quiet_tx_per_s("dmvcc"),
        "tx_per_s.serial": run.quiet_tx_per_s("serial"),
        "tx_latency_ms.p50": estimator.percentile(latencies, 50),
        "gas_speedup.dmvcc": replayed.gas_speedup,
        "peak_rss_mb": peak_rss_mib(),
        "setup_s": min(run.setups_s),
    }
