"""The streaming harnesses' online invariants (``soak`` and ``serve --check``).

Two checks run beside every block a node produces, while it produces:

* **serializability oracle** — the block's parallel execution, trace-
  recorded, is judged against a fresh serial run of the same packed order
  over the same read view it executed against (PR 1's oracle as a
  continuous invariant);
* **root-parity twin** — an in-memory StateDB commits the same write
  batches; every header the node seals (possibly several blocks behind the
  speculative head) must carry the twin's root at that height.

:class:`InvariantCounts` is the five counters both harness reports inherit;
:class:`OnlineInvariants` is the checker that fills them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..executors.serial import SerialExecutor
from .oracle import SerializabilityOracle
from .trace import TraceRecorder


@dataclass
class InvariantCounts:
    """What the online checks found; the base of ``SoakReport`` and
    ``ServeReport``."""

    oracle_checks: int = 0
    oracle_violations: List[str] = field(default_factory=list)
    oracle_time: float = 0.0
    root_parity_checks: int = 0
    root_mismatches: List[str] = field(default_factory=list)

    def invariant_lines(self) -> List[str]:
        return [
            f"  oracle: {self.oracle_checks} online check(s), "
            f"{len(self.oracle_violations)} violation(s), "
            f"{self.oracle_time:.1f}s total",
            f"  root parity: {self.root_parity_checks} sealed root(s) "
            f"checked, {len(self.root_mismatches)} mismatch(es)",
        ]

    def invariants_dict(self) -> dict:
        return {
            "oracle_checks": self.oracle_checks,
            "oracle_violations": self.oracle_violations,
            "oracle_time_s": round(self.oracle_time, 2),
            "root_parity_checks": self.root_parity_checks,
            "root_mismatches": self.root_mismatches,
        }


class OnlineInvariants:
    """Checks one node's blocks as they are produced.

    The block's trace reaches the oracle one way: this object keeps a fresh
    :class:`TraceRecorder` in the executor's recorder slot, takes it out in
    :meth:`check_block` (called on the lane that executed the block, before
    the next execute) and puts a new one in.
    """

    def __init__(self, counts: InvariantCounts, twin, executor) -> None:
        self.counts = counts
        self.twin = twin
        self.executor = executor
        self._serial = SerialExecutor()
        self._twin_roots: Dict[int, bytes] = {}
        self._sealed = 0      # headers of the node's chain already compared
        self.rearm()

    def rearm(self) -> None:
        """Drop whatever the slot recorded (a block whose commit crashed)
        and start the next block's trace."""
        self.executor.recorder = TraceRecorder()

    def check_block(self, number: int, view, txs, execution) -> None:
        """Oracle-check block ``number`` as executed over ``view`` and
        commit its writes to the twin."""
        counts = self.counts
        trace = self.executor.recorder
        self.rearm()
        started = time.perf_counter()
        serial = self._serial.execute_block(
            list(txs), view, self.twin.codes.code_of, threads=1)
        verdict = SerializabilityOracle(snapshot_get=view.get_uncached).check(
            trace=trace,
            parallel_writes=execution.writes,
            parallel_receipts=execution.receipts,
            serial_writes=serial.writes,
            serial_receipts=serial.receipts,
            scheduler=self.executor.name,
        )
        counts.oracle_time += time.perf_counter() - started
        counts.oracle_checks += 1
        counts.oracle_violations += [
            f"block {number}: {divergence}"
            for divergence in verdict.divergences[:3]
        ]
        self.twin.commit(execution.writes)
        self._twin_roots[number] = self.twin.latest.root_hash

    def check_sealed(self, chain: Sequence) -> None:
        """Compare every header of ``chain`` not yet seen against the
        twin's root at its height (``chain`` only ever grows)."""
        counts = self.counts
        for header in chain[self._sealed:]:
            self._sealed += 1
            counts.root_parity_checks += 1
            expected = self._twin_roots.pop(header.number, None)
            if expected is None:
                counts.root_mismatches.append(
                    f"block {header.number}: sealed with no twin root")
            elif header.state_root != expected:
                counts.root_mismatches.append(
                    f"block {header.number}: sealed root "
                    f"{header.state_root.hex()[:16]} != twin "
                    f"{expected.hex()[:16]}")
