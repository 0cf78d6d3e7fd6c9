"""Correctness backstop: trace recording, serializability oracle, fuzzing.

``repro.verify`` independently checks the repo's central claim — that every
parallel executor preserves deterministic serializability (Definition 2) —
instead of trusting the schedulers to be right:

* :mod:`.trace`  — a :class:`~repro.verify.trace.TraceRecorder` attached to
  any executor records every versioned read/write, publish, retraction,
  abort, and completion;
* :mod:`.oracle` — replays a trace against the serial baseline: conflict
  graph acyclicity, state-root and receipt equivalence, and early-write
  visibility hygiene (no committed read of a retracted version);
* :mod:`.fuzz`   — differential fuzzing of Serial vs DAG vs OCC vs DMVCC
  over randomized workloads, with greedy block minimization on divergence;
* :mod:`.crash`  — crash-recovery fuzzing of the durable storage engine
  (``repro.db``): seeded random blocks, a fault-injected crash at a random
  byte offset, and a recovery check against an in-memory twin;
* :mod:`.parity` — the two differential parity sweeps: every scenario
  preset × scheduler on real threads and real multiprocessing workers must
  reproduce the discrete-event simulator's receipts, writes, and sealed
  root byte-for-byte, and every preset × backend under the sharded executor
  (plain and merge-declared) must reproduce the serial reference;
* :mod:`.online` — the oracle and a root-parity twin kept *online* beside
  a producing node (the ``soak`` and ``serve --check`` invariants).
"""

from .trace import TraceRecorder
from .oracle import OracleReport, SerializabilityOracle, check_block
from .fuzz import DifferentialFuzzer, FuzzReport
from .crash import CrashReport, run_crash_campaign
from .parity import (
    ParityReport,
    receipt_digest,
    run_shard_verify,
    run_substrate_verify,
)
from .online import InvariantCounts, OnlineInvariants

__all__ = [
    "TraceRecorder",
    "OracleReport",
    "SerializabilityOracle",
    "check_block",
    "DifferentialFuzzer",
    "FuzzReport",
    "CrashReport",
    "run_crash_campaign",
    "ParityReport",
    "receipt_digest",
    "run_substrate_verify",
    "run_shard_verify",
    "InvariantCounts",
    "OnlineInvariants",
]
