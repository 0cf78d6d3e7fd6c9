"""``python -m repro serve`` — stream a scenario through the pipeline.

The serving analogue of :mod:`repro.soak`: instead of feeding and
proposing one block at a time, the scenario generator becomes a continuous
:class:`~repro.pipeline.source.WorkloadStream` (nonce- and fee-stamped)
pulled through the full mempool → analyse → pack → execute → seal →
persist pipeline, with backpressure hysteresis at the front and a bounded
seal queue in the middle.

``--check`` keeps the online invariants of :mod:`repro.verify.online`
beside the stream: every block is oracle-checked against a fresh serial
run over the same speculative :class:`~repro.pipeline.view.PendingView`,
and every header the commit lane seals (possibly several blocks behind the
speculative head) is compared against the root-parity twin.

The defaults are sized so backpressure genuinely engages: the stream
produces faster than a block consumes and the mempool is small enough to
hit its high watermark within a few blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..chain.txpool import Packer, TransactionPool
from ..executors import executor_for
from ..scheduling.planner import LanePlanner
from ..verify.online import InvariantCounts, OnlineInvariants
from ..workload.generator import Workload
from ..workload.scenarios import scenario_config
from .driver import PipelinedValidator, PipelineReport
from .source import WorkloadStream


@dataclass
class ServeReport(InvariantCounts):
    """One serve run: the pipeline's report plus the online invariants."""

    scenario: str = ""
    backend: str = "durable"
    seed: int = 0
    check: bool = False
    pipeline: PipelineReport = field(default_factory=PipelineReport)

    @property
    def ok(self) -> bool:
        return not (self.oracle_violations or self.root_mismatches)

    def render(self) -> str:
        lines = [self.pipeline.render()]
        if self.check:
            lines += self.invariant_lines()
            lines[-1] += ": OK" if self.ok else ": FAILED"
            for detail in (
                self.oracle_violations[:5] + self.root_mismatches[:5]
            ):
                lines.append(f"    {detail}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        data = self.pipeline.as_dict()
        data["config"].update({
            "scenario": self.scenario,
            "backend": self.backend,
            "seed": self.seed,
            "check": self.check,
        })
        data["invariants"] = self.invariants_dict()
        data["ok"] = self.ok
        return data


def run_serve(
    blocks: int = 500,
    txs_per_block: int = 32,
    scenario: str = "mix",
    scheduler: str = "dmvcc",
    threads: int = 8,
    seed: int = 2023,
    backend: str = "durable",
    max_inflight: int = 2,
    pool_size: Optional[int] = None,
    min_fee: int = 0,
    per_sender_cap: int = 0,
    max_nonce_gap: Optional[int] = None,
    high_watermark: float = 0.9,
    low_watermark: float = 0.5,
    ingest_rate: Optional[int] = None,
    gas_limit: Optional[int] = None,
    check: bool = False,
    fsync_delay: float = 0.0,
    durable_dir: Optional[str] = None,
    workload_overrides: Optional[Dict] = None,
    profile_db: Optional[str] = None,
    obs=None,
    progress: Optional[Callable[[str], None]] = None,
    progress_every: int = 50,
    report_path: Optional[str] = None,
) -> ServeReport:
    """Stream ``blocks`` blocks of a scenario through the pipeline.

    ``pool_size`` defaults to six blocks' worth, ``ingest_rate`` to two
    blocks' worth per cycle, and the watermark band is wide (0.5–0.9): the
    stream outruns consumption, occupancy climbs over the high watermark
    within a few blocks, and draining back under the low watermark takes
    several packed blocks — so ingest genuinely skips pull cycles, it does
    not just toggle.  ``max_inflight=0`` runs the same loop strictly
    sequentially.
    """
    if backend not in ("memory", "durable"):
        raise ValueError(f"unknown backend {backend!r}")
    import shutil
    import tempfile

    config = scenario_config(scenario, seed=seed, **(workload_overrides or {}))
    workload = Workload(config)
    twin = workload.db
    own_dir = durable_dir is None
    if backend == "durable":
        directory = durable_dir or tempfile.mkdtemp(prefix="repro-serve-")
        db = twin.mirror_durable(directory, fsync_delay=fsync_delay)
    else:
        directory = None
        db = twin.fork()

    executor = executor_for(scheduler)
    pool = TransactionPool(
        max_size=pool_size or txs_per_block * 6,
        min_fee=min_fee,
        per_sender_cap=per_sender_cap,
        nonce_tracking=True,
        max_nonce_gap=max_nonce_gap,
        high_watermark=high_watermark,
        low_watermark=low_watermark,
        obs=obs,
    )
    packer = Packer(max_txs=txs_per_block, gas_limit=gas_limit, order="fee")
    driver = PipelinedValidator(
        "serve", db, executor, threads=threads,
        pool=pool, packer=packer, max_inflight=max_inflight,
        ingest_rate=ingest_rate or txs_per_block * 2, obs=obs,
        # Learned-profile continuity across serve runs: the node boots the
        # planner from the persisted heat (if any) and save_profiles()
        # writes the updated store back when the stream drains.
        planner=LanePlanner() if profile_db else None,
        profile_path=profile_db,
    )
    source = WorkloadStream(workload, limit=blocks * txs_per_block)

    report = ServeReport(
        scenario=scenario, backend=backend, seed=seed, check=check,
    )
    invariants = OnlineInvariants(report, twin, executor) if check else None

    def on_block(height, view, txs, execution) -> None:
        if invariants is not None:
            invariants.check_block(height, view, txs, execution)
            invariants.check_sealed(driver.chain)
        if progress is not None and height % max(progress_every, 1) == 0:
            progress(
                f"block {height}/{blocks}: pool {len(driver.pool)}, "
                f"{driver.report.queue_stalls} stall(s), "
                f"{driver.report.backpressure_engagements} backpressure "
                f"engagement(s)"
            )

    try:
        report.pipeline = driver.run(source, blocks, on_block=on_block)
        if invariants is not None:
            invariants.check_sealed(driver.chain)  # sealed after the last hook
    finally:
        driver.close()
        driver.save_profiles()
        db.close()
        if backend == "durable" and own_dir:
            shutil.rmtree(directory, ignore_errors=True)

    if report_path:
        from ..bench.reporting import save_results_json

        save_results_json(report_path, report.as_dict())
    return report
