"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` knows about this file.  A span comes from one of two
places: a timing wrapper the benchmark puts on a bound method of an instance
it constructed (``pool.add``, ``pool.analyse``, ``packer.pack``,
``executor.execute_block``, ``db.commit``), or the pipeline's own
``stage_completed`` notification, received by an obs sink.  Every span
carries the height of the block it worked for, the identifier the spans of
one block share; the block's own span (first span of the block to the end of
its persist) is the root of them.  Spans stay in memory and are written once,
after the clock has stopped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs import NullSink


class BlockStamps(NullSink):
    """The untraced sink: one timestamp per block, taken when its persist
    stage completes.  Overrides ``stage_completed`` only."""

    def __init__(self) -> None:
        super().__init__()
        self.persisted: Dict[int, float] = {}

    def stage_completed(self, ts, stage, block, latency=0.0, items=0) -> None:
        if stage == "persist":
            self.persisted[block] = time.perf_counter()


@dataclass
class Span:
    name: str
    start: float
    end: float
    block: int
    lap: str = ""
    parent: str = "block"

    @property
    def duration(self) -> float:
        return self.end - self.start


# Which span a span is nested in; what is not listed hangs off its block's
# span.  The pipeline reports a stage when it ends, the wrappers time the one
# call into the layer that the stage makes.
NESTS_IN = {
    "txpool.add": "stage.ingest",
    "analysis.analyse": "stage.analyse",
    "txpool.pack": "stage.pack",
    "executors.execute_block": "stage.execute",
    "stage.seal": "state.commit",
    "stage.persist": "state.commit",
}


class Tracer:
    """In-memory span store for one traced lap."""

    def __init__(self, lap: str) -> None:
        self.lap = lap
        self.spans: List[Span] = []
        # The block the stream lane is working towards: ingest and analyse
        # are not told a height, so they are charged to the next block packed.
        self.stream_block = 1

    def add(self, name: str, start: float, end: float, block: int) -> None:
        self.spans.append(
            Span(name, start, end, block, self.lap, NESTS_IN.get(name, "block")))

    def wrap(self, obj, attr: str, name: str,
             block_of: Optional[Callable[[], int]] = None) -> None:
        """Replace ``obj.attr`` (a bound method of one of the benchmark's
        own instances) by a wrapper that records a span around each call."""
        inner = getattr(obj, attr)
        add = self.add
        clock = time.perf_counter

        def timed(*args, **kwargs):
            block = block_of() if block_of is not None else self.stream_block
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                add(name, start, clock(), block)

        setattr(obj, attr, timed)

    def with_block_spans(self) -> List[Span]:
        """All spans plus one ``block`` span per height: from the first span
        that worked for the block to the end of its persist stage."""
        first: Dict[int, float] = {}
        last: Dict[int, float] = {}
        for span in self.spans:
            if span.block not in first or span.start < first[span.block]:
                first[span.block] = span.start
            if span.name == "stage.persist":
                last[span.block] = span.end
        blocks = [
            Span("block", first[height], last[height], height, self.lap, parent="")
            for height in sorted(last)
        ]
        return blocks + self.spans


class SpanSink(BlockStamps):
    """The traced sink: every ``stage_completed`` becomes a span as well."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def stage_completed(self, ts, stage, block, latency=0.0, items=0) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        if stage == "persist":
            self.persisted[block] = end
        if block < 0:
            block = tracer.stream_block
        elif stage == "execute":
            tracer.stream_block = block + 1
        tracer.add(f"stage.{stage}", end - latency, end, block)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: a span's duration minus its children's.
    A child lies inside its parent by construction (the wrapper is called
    from the stage, the stages from the commit), and the children of one
    parent follow one another, so totals per name suffice.  The self time of
    ``block`` is what no layer accounts for: the wait in the seal queue and
    the driver's own loop."""
    totals: Dict[str, float] = {}
    children: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        if span.parent:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    return {name: total - children.get(name, 0.0) for name, total in totals.items()}


def dump(path: str, spans: List[Span], origin: float) -> None:
    """Write the spans as JSON, times in milliseconds from ``origin``."""
    rows = [
        {
            "name": span.name, "lap": span.lap, "block": span.block,
            "parent": span.parent,
            "start_ms": round((span.start - origin) * 1e3, 4),
            "end_ms": round((span.end - origin) * 1e3, 4),
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"unit": "ms", "spans": rows}, handle)
