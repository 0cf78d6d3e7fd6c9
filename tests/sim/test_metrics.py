"""Metrics aggregation tests."""

import dataclasses

import pytest

from repro.sim import BlockMetrics, TxMetrics, aggregate


def block(scheduler="x", threads=4, makespan=100.0, serial=400.0,
          executions=10, aborts=2, utilisation=0.5, txs=8):
    metrics = BlockMetrics(scheduler=scheduler, threads=threads)
    metrics.tx_count = txs
    metrics.makespan = makespan
    metrics.serial_time = serial
    metrics.executions = executions
    metrics.aborts = aborts
    metrics.utilisation = utilisation
    return metrics


class TestBlockMetrics:
    def test_speedup(self):
        assert block(makespan=100, serial=400).speedup == 4.0

    def test_speedup_zero_makespan(self):
        assert block(makespan=0, serial=0).speedup == 1.0

    def test_abort_rate(self):
        assert block(executions=10, aborts=2).abort_rate == 0.2

    def test_abort_rate_no_executions(self):
        assert block(executions=0, aborts=0).abort_rate == 0.0

    def test_summary_contains_fields(self):
        text = block().summary()
        assert "threads=4" in text
        assert "speedup" in text

    def test_tx_metrics_latency(self):
        tx = TxMetrics(index=0, start_time=5.0, end_time=12.5)
        assert tx.latency == 7.5


class TestAggregate:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_totals_sum(self):
        total = aggregate([
            block(makespan=100, serial=300, executions=5, aborts=1, txs=4),
            block(makespan=50, serial=200, executions=6, aborts=2, txs=5),
        ])
        assert total.makespan == 150
        assert total.serial_time == 500
        assert total.tx_count == 9
        assert total.executions == 11
        assert total.aborts == 3

    def test_no_numeric_field_is_dropped(self):
        """Every counter a block reports must survive aggregation: a field
        ``merge_from`` forgets silently reads as 0 for the whole workload
        (``rescues``, the lost-wake-up alarm, did)."""
        def filled():
            # A real backend, so the backend-gated fields merge too.
            metrics = BlockMetrics(scheduler="x", threads=4, backend="threads")
            for f in dataclasses.fields(BlockMetrics):
                if isinstance(f.default, bool):
                    setattr(metrics, f.name, True)
                elif isinstance(f.default, (int, float)):
                    setattr(metrics, f.name, 3)
            return metrics

        total = aggregate([filled(), filled()])
        dropped = [
            f.name for f in dataclasses.fields(BlockMetrics)
            if isinstance(f.default, (bool, int, float))
            and getattr(total, f.name) == f.default
        ]
        assert dropped == []

    def test_speedup_is_work_weighted(self):
        """Aggregate speedup = total serial time / total makespan, not the
        mean of per-block speedups."""
        total = aggregate([
            block(makespan=100, serial=100),  # 1x
            block(makespan=10, serial=90),    # 9x
        ])
        assert total.speedup == pytest.approx(190 / 110)

    def test_utilisation_weighted_by_busy_time(self):
        total = aggregate([
            block(makespan=100, utilisation=1.0, threads=4),
            block(makespan=100, utilisation=0.0, threads=4),
        ])
        assert total.utilisation == pytest.approx(0.5)
