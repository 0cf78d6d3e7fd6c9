"""repro.pipeline — the streaming block pipeline (the serving layer).

Decomposes block production into overlapping stages — **ingest** (mempool
admission), **analyse** (C-SAG building against the latest sealed
snapshot), **pack** (fee-ordered drafting), **execute** (any of the four
schedulers), **seal** (the batched trie-overlay commit), and **persist**
(the durable fsync boundary) — so block *N+1* executes while block *N*'s
log bytes are fsynced.  See ``docs/PIPELINE.md``.
"""

from .driver import (
    STAGES,
    PipelinedValidator,
    PipelineReport,
    StageStats,
)
from .serve import ServeReport, run_serve
from .source import IteratorSource, WorkloadStream

__all__ = [
    "STAGES",
    "IteratorSource",
    "PipelineReport",
    "PipelinedValidator",
    "ServeReport",
    "StageStats",
    "WorkloadStream",
    "run_serve",
]
