"""Shared benchmark configuration.

Every benchmark regenerates one figure/claim of the paper's evaluation.
``REPRO_BENCH_SCALE`` (default 1.0) scales transaction counts: set it to
0.25 for a quick smoke run or 4.0 for a closer-to-paper-scale run.

The simulated-time results (speedups, abort rates — the paper's actual
metrics) are attached to each benchmark's ``extra_info`` and printed, while
pytest-benchmark itself measures the wall-clock cost of executing one block
under each scheduler on this machine.
"""

from __future__ import annotations

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 20) -> int:
    return max(minimum, int(n * SCALE))


# The paper's experiment parameters, scaled for a Python-speed substrate.
FIG7_BLOCKS = 2
FIG7_TXS_PER_BLOCK = scaled(600)
FIG7_THREADS = (1, 2, 4, 8, 16, 32)

FIG8_VALIDATORS = 2
FIG8_BLOCKS = 2
FIG8_TXS_PER_BLOCK = scaled(600)
FIG8_THREADS = (1, 8, 32)
# Calibrated so a serial block takes ~360 s of simulated time regardless of
# REPRO_BENCH_SCALE — the same execution-bound regime as the paper's
# 10,000-tx blocks on its testbed (~45k gas/tx · block / 360 s).
FIG8_GAS_PER_SECOND = FIG8_TXS_PER_BLOCK * 45_000 / 360.0

RQ1_BLOCKS = 4
RQ1_TXS_PER_BLOCK = scaled(200)

# Sized so per-contract contention approximates the paper's mainnet data
# (61k contracts for the full traffic; a 600-tx block there touches each
# popular contract a handful of times).
WORKLOAD_SIZE = dict(
    users=scaled(2000),
    erc20_tokens=25,
    dex_pools=10,
    nft_collections=8,
    icos=2,
)


def print_result(result) -> None:
    print()
    print(result.format_table())


@pytest.fixture(scope="session")
def bench_params():
    return {
        "scale": SCALE,
        "workload": WORKLOAD_SIZE,
    }


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp ``--benchmark-json`` output with schema version + git commit,
    so an archived benchmark file carries its provenance."""
    from repro.bench.reporting import stamp_results

    stamp_results(output_json)
