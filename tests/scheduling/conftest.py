"""Shared fixtures for the scheduling suite (mirrors tests/substrate)."""

import pytest

from repro.verify import receipt_digest  # noqa: F401  (the suites import it from here)
from repro.workload import Workload
from repro.workload.scenarios import scenario_config

SMALL = dict(users=40, erc20_tokens=2, dex_pools=2, nft_collections=2, icos=1)
TXS = 16

_cases = {}


def scenario_case(scenario: str, txs: int = TXS, seed: int = 7):
    """(workload, transactions) for one scaled-down scenario, cached."""
    key = (scenario, txs, seed)
    if key not in _cases:
        workload = Workload(scenario_config(scenario, seed=seed, **SMALL))
        _cases[key] = (workload, workload.transactions(txs))
    return _cases[key]


@pytest.fixture(scope="session")
def threads_substrate():
    from repro.substrate import get_substrate

    substrate = get_substrate("threads", workers=3)
    yield substrate
    substrate.close()


@pytest.fixture(scope="session")
def processes_substrate():
    from repro.substrate import get_substrate

    substrate = get_substrate("processes", workers=3)
    yield substrate
    substrate.close()


