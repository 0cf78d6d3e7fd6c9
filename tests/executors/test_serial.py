"""Serial executor tests: the correctness oracle itself."""

from repro.chain.transaction import Transaction
from repro.core import StateKey, mapping_slot
from repro.executors import SerialExecutor, TxStatus

from .helpers import TOKEN, USERS, token_db


class TestSerialExecution:
    def test_sequential_visibility(self, token_contract):
        db = token_db(token_contract)
        a, b, c = USERS[0], USERS[1], USERS[2]
        txs = [
            Transaction(a, TOKEN, 0, token_contract.encode_call("transfer", b, 1_000)),
            # b now has 2000; forward 1500 (only possible if it saw tx 0)
            Transaction(b, TOKEN, 0, token_contract.encode_call("transfer", c, 1_500)),
        ]
        execution = SerialExecutor().execute_block(txs, db.latest, db.codes.code_of)
        assert all(r.result.success for r in execution.receipts)
        bal = token_contract.slot_of("balanceOf")
        assert execution.writes[StateKey(TOKEN, mapping_slot(c.to_word(), bal))] == 2_500

    def test_failed_tx_leaves_no_writes(self, token_contract):
        db = token_db(token_contract)
        a, b = USERS[0], USERS[1]
        txs = [
            Transaction(a, TOKEN, 0, token_contract.encode_call("transfer", b, 10**9)),
        ]
        execution = SerialExecutor().execute_block(txs, db.latest, db.codes.code_of)
        assert execution.receipts[0].result.status is TxStatus.REVERTED
        assert not execution.writes

    def test_ether_transfer(self, token_contract):
        db = token_db(token_contract)
        a, b = USERS[0], USERS[1]
        txs = [Transaction(a, b, 12345)]
        execution = SerialExecutor().execute_block(txs, db.latest, db.codes.code_of)
        assert execution.writes[StateKey.balance(b)] == 10**18 + 12345

    def test_metrics(self, token_contract):
        db = token_db(token_contract)
        txs = [
            Transaction(USERS[0], USERS[1], 5),
            Transaction(USERS[1], USERS[2], 5),
        ]
        execution = SerialExecutor().execute_block(txs, db.latest, db.codes.code_of)
        metrics = execution.metrics
        assert metrics.scheduler == "serial"
        assert metrics.tx_count == 2
        assert metrics.speedup == 1.0
        assert metrics.makespan == metrics.serial_time
        assert metrics.aborts == 0
        assert metrics.utilisation == 1.0

    def test_failure_counted(self, token_contract):
        db = token_db(token_contract)
        txs = [
            Transaction(
                USERS[0], TOKEN, 0,
                token_contract.encode_call("transfer", USERS[1], 10**9),
            ),
            Transaction(USERS[0], USERS[1], 5),
        ]
        execution = SerialExecutor().execute_block(txs, db.latest, db.codes.code_of)
        assert execution.metrics.deterministic_failures == 1
        assert execution.success_count == 1

    def test_commit_roundtrip_root(self, token_contract):
        """Serial execution then commit produces a reproducible root."""
        db1 = token_db(token_contract)
        db2 = token_db(token_contract)
        txs = [
            Transaction(USERS[0], TOKEN, 0,
                        token_contract.encode_call("transfer", USERS[1], 10)),
            Transaction(USERS[2], USERS[3], 999),
        ]
        ex1 = SerialExecutor().execute_block(txs, db1.latest, db1.codes.code_of)
        ex2 = SerialExecutor().execute_block(txs, db2.latest, db2.codes.code_of)
        assert db1.commit(ex1.writes).root_hash == db2.commit(ex2.writes).root_hash


class TestExecutorLookup:
    def test_every_scheduler_name_resolves(self):
        from repro.executors import EXECUTORS, executor_for
        from repro.shard import ShardedDMVCCExecutor

        for name, cls in EXECUTORS.items():
            assert type(executor_for(name)) is cls
        assert isinstance(executor_for("sharded"), ShardedDMVCCExecutor)

    def test_unknown_scheduler_names_the_choices(self):
        import pytest

        from repro.executors import executor_for

        with pytest.raises(ValueError, match="choose from serial, .*sharded"):
            executor_for("papyrus")
