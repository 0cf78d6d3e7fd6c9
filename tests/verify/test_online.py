"""OnlineInvariants driven by hand: one node, no pipeline, no harness.

The object ``soak`` and ``serve --check`` share is exercised directly: a
plain ``Validator`` proposes blocks, the test plays the harness's part
(``check_block`` after each execute, ``check_sealed`` over the chain).
"""

from dataclasses import replace

import pytest

from repro.chain import Packer, Validator
from repro.executors import DMVCCExecutor
from repro.verify import InvariantCounts, OnlineInvariants, TraceRecorder
from repro.workload import Workload, scenario_config

SMALL = dict(users=24, erc20_tokens=2, dex_pools=1, nft_collections=1, icos=1)
TXS = 8


@pytest.fixture
def node():
    workload = Workload(scenario_config("abort_storm", seed=19, **SMALL))
    executor = DMVCCExecutor()
    validator = Validator(
        "node", workload.db.fork(), executor, threads=4,
        packer=Packer(max_txs=TXS),
    )
    counts = InvariantCounts()
    invariants = OnlineInvariants(counts, workload.db, executor)
    return workload, validator, invariants, counts


def propose(workload, validator):
    pre = validator.db.latest
    for tx in workload.transactions(TXS):
        validator.receive_transaction(tx)
    block, execution = validator.propose_block(timestamp=validator.height + 1)
    return pre, block, execution


def test_clean_blocks_raise_nothing(node):
    workload, validator, invariants, counts = node
    for _ in range(3):
        recorder = validator.executor.recorder
        pre, block, execution = propose(workload, validator)
        assert len(recorder) > 0           # the slot's recorder saw the block
        invariants.check_block(
            block.number, pre, block.transactions, execution)
        # ... and a fresh one is in place for the next.
        assert isinstance(validator.executor.recorder, TraceRecorder)
        assert validator.executor.recorder is not recorder
        invariants.check_sealed(validator.chain)
    assert counts.oracle_checks == 3
    assert counts.root_parity_checks == 3
    assert counts.oracle_violations == []
    assert counts.root_mismatches == []
    assert counts.oracle_time > 0.0
    assert "3 online check(s), 0 violation(s)" in counts.invariant_lines()[0]
    assert counts.invariants_dict()["root_parity_checks"] == 3


def test_tampered_write_set_is_one_oracle_violation(node):
    workload, validator, invariants, counts = node
    pre, block, execution = propose(workload, validator)
    key = next(iter(execution.writes))
    execution.writes[key] += 1
    invariants.check_block(block.number, pre, block.transactions, execution)
    assert counts.oracle_checks == 1
    assert len(counts.oracle_violations) == 1
    assert counts.oracle_violations[0].startswith(f"block {block.number}: ")
    assert str(key) in counts.oracle_violations[0]


def test_wrong_sealed_root_is_one_root_mismatch(node):
    workload, validator, invariants, counts = node
    pre, block, execution = propose(workload, validator)
    invariants.check_block(block.number, pre, block.transactions, execution)
    root = block.header.state_root
    forged = replace(
        block.header, state_root=bytes([root[0] ^ 0x01]) + root[1:])
    invariants.check_sealed([forged])
    assert counts.root_parity_checks == 1
    assert len(counts.root_mismatches) == 1
    assert counts.oracle_violations == []


def test_header_sealed_without_a_twin_root_is_a_mismatch(node):
    workload, validator, invariants, counts = node
    _pre, block, _execution = propose(workload, validator)
    invariants.check_sealed(validator.chain)    # check_block never ran
    assert counts.root_mismatches == [
        f"block {block.number}: sealed with no twin root"]


def test_rearm_drops_a_dead_blocks_trace(node):
    workload, validator, invariants, counts = node
    executor = validator.executor
    txs = workload.transactions(TXS)
    executor.execute_block(
        txs, validator.db.latest, validator.db.codes.code_of, threads=4)
    assert len(executor.recorder) > 0     # a block whose commit "crashed"
    invariants.rearm()
    assert len(executor.recorder) == 0
    for tx in txs:
        validator.receive_transaction(tx)
    pre = validator.db.latest
    block, execution = validator.propose_block(timestamp=1)
    invariants.check_block(block.number, pre, block.transactions, execution)
    assert counts.oracle_violations == []
