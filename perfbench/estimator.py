"""The benchmark's estimators: pure functions over lists of numbers.

Every lap of a run does identical work block for block, so the quiet-host
duration of block *i* is estimated across laps (never within one) by the
*lower quartile* of its persist-to-persist interval, and a lap's quiet
duration is the sum of those.  A slow episode of the host then has to hit
the same block in most laps to reach the result.  The per-block minimum is
no steadier and keeps rising with every lap added, because it also harvests
lane-timing jitter; the lower quartile does so far less.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


def lower_quartile(values: Sequence[float]) -> float:
    """Element ``len // 4`` of the sorted values: the fastest of up to three,
    the second-fastest of four to seven."""
    if not values:
        raise ValueError("lower_quartile of no values")
    return sorted(values)[len(values) // 4]


def intervals(start: float, stamps: Sequence[float]) -> List[float]:
    """Per-block durations of one lap: block 1 from the lap's start, block
    ``i`` from the completion stamp of block ``i - 1``."""
    out = []
    previous = start
    for stamp in stamps:
        out.append(stamp - previous)
        previous = stamp
    return out


def quiet_intervals(laps: Sequence[Sequence[float]]) -> List[float]:
    """Per-block lower quartile across laps of equal length."""
    if not laps:
        raise ValueError("no laps")
    length = len(laps[0])
    if any(len(lap) != length for lap in laps):
        raise ValueError("laps differ in length")
    return [lower_quartile([lap[i] for lap in laps]) for i in range(length)]


def quiet_seconds(laps: Sequence[Sequence[float]]) -> float:
    """The quiet-host duration of one lap: the sum of the per-block lower
    quartiles across ``laps`` (each a list of per-block intervals)."""
    return math.fsum(quiet_intervals(laps))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of the values."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``th
    percentile (the guide asks for ten before a percentile is reported)."""
    return count - max(1, math.ceil(q / 100.0 * count))


def spread_pct(values: Sequence[float]) -> float:
    """(max - min) / median of the values, in percent; 0 for one value."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid * 100.0 if mid else 0.0
