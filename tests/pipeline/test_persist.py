"""The commit lane only fsyncs: what a persist stamp promises.

Seal runs on the stream lane and writes a block's node records and commit
marker; the commit lane flushes and fsyncs them, then stamps the block
persisted.  These tests pin the storage side of that split: persist stamps
arrive in height order, each after its seal; ``max_inflight=k`` never
leaves more than ``k`` sealed blocks unsynced; a crash mid-run reopens at
the last fsynced marker; and segment rolls between a seal and its fsync
lose nothing.
"""

from types import SimpleNamespace

import pytest

from repro.chain import Packer
from repro.db.faults import FaultPlan, InjectedCrash
from repro.executors import DMVCCExecutor
from repro.obs import EventBus
from repro.pipeline import PipelinedValidator, WorkloadStream
from repro.state import StateDB
from repro.workload import Workload, scenario_config

SMALL = dict(users=24, erc20_tokens=2, dex_pools=1, nft_collections=1, icos=1)
BLOCKS = 6
TXS_PER_BLOCK = 8


def stream_run(directory, *, max_inflight, blocks=BLOCKS, seed=17, **open_kwargs):
    """Stream ``blocks`` blocks onto a durable mirror of a small genesis.
    Returns the driver, the seal/persist stage events in emission order,
    the still-open StateDB, each block's metrics, the log bytes the mirror
    wrote, and the crash the run raised (if any)."""
    workload = Workload(scenario_config("mix", seed=seed, **SMALL))
    db = workload.db.mirror_durable(str(directory), **open_kwargs)
    genesis_bytes = db._store.backend._log.appended_bytes
    bus = EventBus()
    driver = PipelinedValidator(
        "persist", db, DMVCCExecutor(), threads=2,
        packer=Packer(max_txs=TXS_PER_BLOCK, order="fee"),
        max_inflight=max_inflight, obs=bus,
    )
    source = WorkloadStream(workload, limit=blocks * TXS_PER_BLOCK)
    metrics = []
    error = None
    try:
        driver.run(source, blocks, on_block=lambda h, view, txs, execution:
                   metrics.append(execution.metrics))
    except InjectedCrash as crash:
        error = crash
    finally:
        driver.close()
    stages = [
        (e.stage, e.block) for e in bus.events
        if type(e).__name__ == "StageCompleted"
        and e.stage in ("seal", "persist")
    ]
    return SimpleNamespace(driver=driver, stages=stages, db=db, error=error,
                           metrics=metrics, genesis_bytes=genesis_bytes)


def persisted(run):
    return [h for stage, h in run.stages if stage == "persist"]


class TestPersistOrder:
    @pytest.mark.parametrize("max_inflight", [0, 1, 2])
    def test_persist_follows_seal_in_height_order(self, tmp_path, max_inflight):
        run = stream_run(tmp_path, max_inflight=max_inflight)
        run.db.close()
        assert persisted(run) == list(range(1, BLOCKS + 1))
        for height in persisted(run):
            assert run.stages.index(("seal", height)) < run.stages.index(
                ("persist", height))
        for metrics in run.metrics:
            assert metrics.db_fsync_time > 0.0

    @pytest.mark.parametrize("max_inflight", [1, 2])
    def test_inflight_bound(self, tmp_path, max_inflight):
        # A slow disk keeps the commit lane behind, so the bound is hit.
        run = stream_run(tmp_path, max_inflight=max_inflight, fsync_delay=0.1)
        run.db.close()
        unsynced = peak = 0
        for stage, _ in run.stages:
            unsynced += 1 if stage == "seal" else -1
            peak = max(peak, unsynced)
            assert 0 <= unsynced <= max_inflight
        assert peak == max_inflight
        assert unsynced == 0


class TestCrashAndRoll:
    def test_crash_mid_run_reopens_at_last_fsynced_marker(self, tmp_path):
        # Size the crash from a clean run of the same stream: it lands
        # halfway through the fourth block's log bytes.
        clean = stream_run(tmp_path / "clean", max_inflight=2)
        clean.db.close()
        sizes = [metrics.db_bytes_appended for metrics in clean.metrics]
        budget = clean.genesis_bytes + sum(sizes[:3]) + sizes[3] // 2

        run = stream_run(tmp_path / "crash", max_inflight=2,
                         faults=FaultPlan(crash_after_bytes=budget))
        assert isinstance(run.error, InjectedCrash)
        assert persisted(run) == [1, 2, 3]
        # The wounded handle is abandoned, as a dead process leaves it.
        reopened = StateDB.open(str(tmp_path / "crash"))
        try:
            assert reopened.height == max(persisted(run))
            for block in run.driver.blocks:
                assert reopened.root_at(block.number) == block.header.state_root
        finally:
            reopened.close()

    def test_every_sealed_root_survives_many_rolls(self, tmp_path):
        # Segments far smaller than a block: every commit rolls while
        # earlier blocks still wait for their fsync.
        blocks = 10
        run = stream_run(tmp_path, max_inflight=2, blocks=blocks,
                         segment_bytes=2048)
        segments = len(run.db._store.backend._log.segment_ids())
        run.db.close()
        assert segments > blocks
        reopened = StateDB.open(str(tmp_path))
        try:
            assert reopened.height == blocks
            for block in run.driver.blocks:
                assert reopened.root_at(block.number) == block.header.state_root
        finally:
            reopened.close()
