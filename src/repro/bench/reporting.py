"""Human-readable reports: ASCII schedule charts and speedup curves.

``render_gantt`` draws the per-thread execution timeline of a block — the
picture the paper uses in Fig. 4(b) and Fig. 6 to show how early-write
visibility and commutative writes compact the schedule.

``stamp_results`` / ``save_results_json`` give every emitted result file a
provenance block (schema version + git commit), so archived benchmark JSON
can always be traced back to the code that produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.metrics import BlockMetrics

# Bump when the shape of emitted result JSON changes incompatibly.
# v2: repro_meta gained host provenance (python, cpu_count, backend) so
# wall-clock numbers from the execution substrates can be interpreted.
# v3: repro_meta gained sharding provenance (shards, merge_ops) so a
# sharded or merge-declared result can never be mistaken for a plain run.
RESULTS_SCHEMA_VERSION = 3


def _git_commit() -> str:
    """The repository's HEAD commit — suffixed with ``+dirty`` when tracked
    files have uncommitted modifications — or "unknown" outside a git
    checkout (results must still be writable from an exported tarball)."""
    cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            commit = proc.stdout.strip()
            try:
                status = subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    capture_output=True,
                    text=True,
                    timeout=10,
                    cwd=cwd,
                )
                if status.returncode == 0 and status.stdout.strip():
                    commit += "+dirty"
            except (OSError, subprocess.SubprocessError):
                pass  # dirtiness unknown: keep the bare commit
            return commit
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def stamp_results(document: dict, backend: Optional[str] = None,
                  shards: int = 0,
                  merge_ops: Optional[Sequence[str]] = None) -> dict:
    """Attach the provenance block to a result document, in place.

    Used both by :func:`save_results_json` and by the pytest-benchmark
    ``update_json`` hook, so ``--benchmark-json`` output and ad-hoc exports
    carry the same ``repro_meta``.

    Besides the schema version and git commit, the stamp records the host
    facts that wall-clock numbers cannot be read without: the Python
    version, the machine's CPU count, and the execution ``backend`` the run
    used (explicit argument, else ``REPRO_SUBSTRATE``, else "sim") — a
    "processes beats threads" result means nothing if the archive doesn't
    say the box had one core.  Sharded runs additionally record the shard
    count and the declared merge-operation kinds (sorted, deduplicated):
    ``shards=0`` / ``merge_ops=[]`` is the unsharded, undeclared baseline.
    """
    if backend is None:
        backend = os.environ.get("REPRO_SUBSTRATE", "").strip() or "sim"
    document["repro_meta"] = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
        "backend": backend,
        "shards": max(0, int(shards)),
        "merge_ops": sorted(set(merge_ops)) if merge_ops else [],
    }
    return document


def save_results_json(path: str, payload: dict,
                      backend: Optional[str] = None,
                      shards: int = 0,
                      merge_ops: Optional[Sequence[str]] = None) -> dict:
    """Write ``payload`` to ``path`` (creating its directory) as stamped,
    indented JSON; returns the stamped document."""
    document = stamp_results(dict(payload), backend=backend, shards=shards,
                             merge_ops=merge_ops)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=str)
    return document


def render_gantt(
    metrics: BlockMetrics,
    width: int = 72,
    max_threads: int = 16,
) -> str:
    """ASCII Gantt chart from per-transaction metrics.

    Each thread row shows its transactions as ``[T<i>──]`` spans scaled to
    the block's makespan.  Re-executed transactions show their final
    attempt (the one whose effects committed).
    """
    if not metrics.per_tx or metrics.makespan <= 0:
        return "(empty schedule)"

    # Reconstruct thread lanes greedily from (start, end) intervals: two
    # transactions share a lane iff they do not overlap.
    spans = sorted(
        (tx.start_time, tx.end_time, tx.index)
        for tx in metrics.per_tx
        if tx.end_time > tx.start_time
    )
    lanes: List[List[Tuple[float, float, int]]] = []
    for start, end, index in spans:
        for lane in lanes:
            if lane[-1][1] <= start + 1e-9:
                lane.append((start, end, index))
                break
        else:
            lanes.append([(start, end, index)])

    scale = width / metrics.makespan
    lines = [
        f"schedule: {metrics.scheduler}, {metrics.tx_count} txs, "
        f"{metrics.threads} threads, makespan {metrics.makespan:,.0f} "
        f"(speedup {metrics.speedup:.2f}x)"
    ]
    for lane_no, lane in enumerate(lanes[:max_threads]):
        row = [" "] * width
        for start, end, index in lane:
            left = min(int(start * scale), width - 1)
            right = min(max(int(end * scale), left + 1), width)
            label = f"T{index}"
            span = right - left
            body = (label + "─" * span)[: span - 1] if span > 1 else ""
            row[left:right] = list(("[" + body)[:span])
            if span > 1:
                row[right - 1] = "]"
        lines.append(f"  t{lane_no:<2d} |{''.join(row)}|")
    if len(lanes) > max_threads:
        lines.append(f"  … {len(lanes) - max_threads} more lanes")
    return "\n".join(lines)


def render_speedup_curves(
    series: Dict[str, Sequence[Tuple[int, float]]],
    height: int = 12,
    title: str = "speedup vs threads",
) -> str:
    """ASCII line plot of speedup curves (one symbol per scheduler)."""
    symbols = "O*x+#@"
    all_points = [p for curve in series.values() for p in curve]
    if not all_points:
        return "(no data)"
    max_speedup = max(speedup for _t, speedup in all_points)
    threads = sorted({t for curve in series.values() for t, _s in curve})
    column_of = {t: i for i, t in enumerate(threads)}
    width = len(threads)

    grid = [[" "] * width for _ in range(height)]
    for label_index, (label, curve) in enumerate(sorted(series.items())):
        symbol = symbols[label_index % len(symbols)]
        for t, speedup in curve:
            row = height - 1 - int((speedup / max_speedup) * (height - 1))
            grid[row][column_of[t]] = symbol

    lines = [title]
    for i, row in enumerate(grid):
        level = max_speedup * (height - 1 - i) / (height - 1)
        lines.append(f"{level:7.1f}x |" + "  ".join(row))
    lines.append("         +" + "--" * width)
    lines.append("          " + "  ".join(f"{t}" for t in threads))
    legend = "   ".join(
        f"{symbols[i % len(symbols)]}={label}"
        for i, label in enumerate(sorted(series))
    )
    lines.append(f"threads ({legend})")
    return "\n".join(lines)


def speedup_series_from_result(result) -> Dict[str, List[Tuple[int, float]]]:
    """Adapt a SpeedupResult into render_speedup_curves input."""
    series: Dict[str, List[Tuple[int, float]]] = {}
    for row in result.rows:
        series.setdefault(row.scheduler, []).append((row.threads, row.speedup))
    for curve in series.values():
        curve.sort()
    return series
