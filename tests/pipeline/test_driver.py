"""PipelinedValidator: determinism, replay parity, and stage overlap.

The pipeline's correctness claim is that overlapping stages never changes
*what* is produced, only *when*: a pipelined run must seal byte-identical
blocks to a strictly-sequential run of the same stream, and any ordinary
``Validator`` must be able to re-import the sealed blocks with root
verification on.  The stage-overlap property pins the read contract: every
execute stage reads the snapshot the previous block sealed — covering
exactly heights ``1..height-1``.
"""

import pytest

from repro.chain import Packer, Validator
from repro.executors import DMVCCExecutor
from repro.pipeline import PipelinedValidator, WorkloadStream
from repro.workload import Workload, scenario_config

SMALL = dict(users=24, erc20_tokens=2, dex_pools=1, nft_collections=1, icos=1)
BLOCKS = 6
TXS_PER_BLOCK = 8


def fresh_stream(seed=11):
    config = scenario_config("mix", seed=seed, **SMALL)
    workload = Workload(config)
    return workload, WorkloadStream(workload, limit=BLOCKS * TXS_PER_BLOCK)


def run_driver(max_inflight, seed=11):
    workload, source = fresh_stream(seed)
    driver = PipelinedValidator(
        "test", workload.db.fork(), DMVCCExecutor(), threads=4,
        packer=Packer(max_txs=TXS_PER_BLOCK, order="fee"),
        max_inflight=max_inflight,
    )
    try:
        report = driver.run(source, BLOCKS)
    finally:
        driver.close()
    return workload, driver, report


@pytest.fixture(scope="module")
def pipelined():
    return run_driver(max_inflight=2)


@pytest.fixture(scope="module")
def sequential():
    return run_driver(max_inflight=0)


class TestProduction:
    def test_produces_requested_blocks(self, pipelined):
        _, driver, report = pipelined
        assert report.blocks == BLOCKS
        assert len(driver.blocks) == BLOCKS
        assert [b.header.number for b in driver.blocks] == list(
            range(1, BLOCKS + 1)
        )
        assert report.txs == sum(len(b.transactions) for b in driver.blocks)

    def test_chain_links_parent_hashes(self, pipelined):
        _, driver, _ = pipelined
        for prev, cur in zip(driver.chain, driver.chain[1:]):
            assert cur.parent_hash == prev.block_hash

    def test_sealed_height_matches_statedb(self, pipelined):
        _, driver, _ = pipelined
        assert driver.height == BLOCKS
        assert driver.db.latest.root_hash == driver.chain[-1].state_root

    def test_report_flags_and_stages(self, pipelined, sequential):
        _, _, piped = pipelined
        _, _, serial = sequential
        assert piped.pipelined and not serial.pipelined
        for report in (piped, serial):
            payload = report.as_dict()
            assert set(payload["stages"]) == {
                "ingest", "analyse", "pack", "execute", "seal", "persist",
            }
            assert payload["totals"]["blocks"] == BLOCKS
            rendered = report.render()
            assert "execute" in rendered and "seal" in rendered


class TestDeterminism:
    def test_pipelined_matches_sequential(self, pipelined, sequential):
        _, piped, _ = pipelined
        _, serial, _ = sequential
        assert [h.state_root for h in piped.chain] == [
            h.state_root for h in serial.chain
        ]
        assert [h.block_hash for h in piped.chain] == [
            h.block_hash for h in serial.chain
        ]
        assert [
            [t.tx_hash for t in b.transactions] for b in piped.blocks
        ] == [[t.tx_hash for t in b.transactions] for b in serial.blocks]

    def test_blocks_replay_into_ordinary_validator(self, pipelined):
        workload, driver, _ = pipelined
        importer = Validator(
            "importer", workload.db.fork(), DMVCCExecutor(), threads=4,
        )
        for block in driver.blocks:
            importer.import_block(block, verify_root=True)
        assert importer.db.latest.root_hash == driver.db.latest.root_hash
        assert len(importer.chain) == BLOCKS


class TestStageOverlap:
    @staticmethod
    def executed_on(max_inflight):
        workload, source = fresh_stream(seed=13)
        driver = PipelinedValidator(
            "views", workload.db.fork(), DMVCCExecutor(), threads=2,
            packer=Packer(max_txs=TXS_PER_BLOCK, order="fee"),
            max_inflight=max_inflight,
        )
        seen = []
        try:
            driver.run(source, BLOCKS, on_block=lambda h, view, txs, ex:
                       seen.append((h, view)))
        finally:
            driver.close()
        return driver, seen

    def test_execute_view_covers_exactly_prior_heights(self):
        # Seal runs on the stream lane, so block N always executes against
        # the snapshot block N-1 sealed: it covers exactly 1..N-1, nothing
        # missing (a lost block) and nothing from the future.
        driver, seen = self.executed_on(max_inflight=2)
        assert [h for h, _ in seen] == list(range(1, BLOCKS + 1))
        for height, view in seen:
            assert view is driver.db.snapshot(height - 1)
            assert view.height == height - 1

    def test_sequential_mode_never_speculates(self):
        driver, seen = self.executed_on(max_inflight=0)
        assert len(seen) == BLOCKS
        for height, view in seen:
            assert view is driver.db.snapshot(height - 1)

    def test_overlap_accounting(self, pipelined, sequential):
        _, _, piped = pipelined
        _, _, serial = sequential
        assert piped.overlap_seconds >= 0.0
        # No commit lane in sequential mode: nothing to overlap with.
        assert serial.overlap_seconds == 0.0


class TestValidation:
    def test_negative_inflight_rejected(self):
        workload, _ = fresh_stream()
        with pytest.raises(ValueError):
            PipelinedValidator(
                "bad", workload.db.fork(), DMVCCExecutor(), max_inflight=-1,
            )

    def test_on_block_hook_sees_speculative_view(self):
        workload, source = fresh_stream(seed=5)
        driver = PipelinedValidator(
            "hook", workload.db.fork(), DMVCCExecutor(), threads=2,
            packer=Packer(max_txs=TXS_PER_BLOCK, order="fee"),
            max_inflight=2,
        )
        seen = []
        try:
            driver.run(
                source, 3,
                on_block=lambda h, view, txs, execution: seen.append(
                    (h, view.height, len(txs), execution is not None),
                ),
            )
        finally:
            driver.close()
        assert [entry[0] for entry in seen] == [1, 2, 3]
        for height, view_height, n_txs, has_execution in seen:
            assert view_height == height - 1
            assert n_txs > 0 and has_execution


class TestBlockMetrics:
    @pytest.mark.parametrize("max_inflight", [0, 2])
    def test_flat_cache_traffic_is_counted(self, max_inflight):
        # Blocks executed by the pipeline go through the same execute step
        # as Validator.propose_block, so their metrics carry the block's
        # flat-cache traffic against the snapshot it read.
        workload, source = fresh_stream(seed=7)
        driver = PipelinedValidator(
            "flat", workload.db.fork(), DMVCCExecutor(), threads=2,
            packer=Packer(max_txs=TXS_PER_BLOCK, order="fee"),
            max_inflight=max_inflight,
        )
        metrics = []
        try:
            driver.run(
                source, 3,
                on_block=lambda h, view, txs, execution: metrics.append(
                    execution.metrics),
            )
        finally:
            driver.close()
        assert len(metrics) == 3
        for block in metrics:
            assert block.flat_hits + block.flat_misses > 0
            assert 0.0 < block.flat_hit_rate <= 1.0
