"""StateDB on the durable backend: parity with memory, obs, metrics."""

import pytest

from repro.core.errors import StateError
from repro.core.types import Address, StateKey
from repro.obs import CommitPersisted, EventBus
from repro.state.statedb import StateDB

ALICE = Address.derive("alice")
BOB = Address.derive("bob")


def blocks(count: int, *, salt: int = 0):
    for height in range(1, count + 1):
        yield {
            StateKey(ALICE, s): height * 100 + s + salt for s in range(4)
        } | {StateKey.balance(BOB): height}


class TestParity:
    def test_roots_byte_identical_to_memory(self, tmp_path):
        memory = StateDB()
        durable = StateDB.open(str(tmp_path))
        assert durable.durable and not memory.durable
        for batch in blocks(5):
            memory.commit(batch)
            durable.commit(batch)
            assert durable.latest.root_hash == memory.latest.root_hash
        durable.close()

    def test_reopen_resumes_the_chain(self, tmp_path):
        durable = StateDB.open(str(tmp_path))
        batches = list(blocks(4))
        for batch in batches[:2]:
            durable.commit(batch)
        durable.close()

        reopened = StateDB.open(str(tmp_path))
        assert reopened.height == 2
        for batch in batches[2:]:
            reopened.commit(batch)
        twin = StateDB()
        for batch in batches:
            twin.commit(batch)
        assert reopened.latest.root_hash == twin.latest.root_hash
        assert reopened.height == twin.height == 4
        reopened.close()

    def test_seed_genesis_is_durable(self, tmp_path):
        durable = StateDB.open(str(tmp_path))
        durable.seed_genesis({ALICE: 1_000}, {StateKey(BOB, 7): 42})
        genesis_root = durable.latest.root_hash
        durable.close()

        reopened = StateDB.open(str(tmp_path))
        assert reopened.height == 0
        assert reopened.latest.root_hash == genesis_root
        assert reopened.latest.balance_of(ALICE) == 1_000
        reopened.close()

    def test_mirror_durable_matches_source(self, tmp_path):
        memory = StateDB()
        for batch in blocks(3):
            memory.commit(batch)
        mirror = memory.mirror_durable(str(tmp_path / "mirror"))
        assert mirror.latest.root_hash == memory.latest.root_hash
        assert mirror.height == memory.height
        mirror.close()

        reopened = StateDB.open(str(tmp_path / "mirror"))
        assert reopened.latest.root_hash == memory.latest.root_hash
        reopened.close()

    @pytest.mark.parametrize("source_backend", ["memory", "durable"])
    def test_mirror_copies_the_latest_trie_node_for_node(
        self, tmp_path, source_backend,
    ):
        # The mirror copies the encoded nodes reachable from the latest
        # root, so it reopens with the same contents and root, and holds
        # no node of an older root.
        if source_backend == "memory":
            source = StateDB()
        else:
            source = StateDB.open(str(tmp_path / "source"))
        source.seed_genesis({ALICE: 1_000}, {StateKey(BOB, 7): 42})
        for batch in blocks(4):
            source.commit(batch)
        mirror = source.mirror_durable(str(tmp_path / "mirror"))
        assert sorted(mirror.latest.items()) == sorted(source.latest.items())
        mirror.close()

        reopened = StateDB.open(str(tmp_path / "mirror"))
        try:
            assert reopened.height == source.height == 4
            assert reopened.latest.root_hash == source.latest.root_hash
            assert sorted(reopened.latest.items()) == sorted(
                source.latest.items())
            assert len(reopened._store.backend) < len(source._store.backend)
        finally:
            reopened.close()
            source.close()

    def test_mirror_of_an_empty_state(self, tmp_path):
        mirror = StateDB().mirror_durable(str(tmp_path / "mirror"))
        mirror.close()
        reopened = StateDB.open(str(tmp_path / "mirror"))
        assert reopened.latest.root_hash == StateDB().latest.root_hash
        assert list(reopened.latest.items()) == []
        reopened.close()

    def test_mirror_refuses_populated_target(self, tmp_path):
        target = str(tmp_path / "mirror")
        first = StateDB.open(target)
        first.commit(next(blocks(1)))
        first.close()
        with pytest.raises(StateError):
            StateDB().mirror_durable(target)


class TestDeferredSync:
    def test_commit_without_sync_then_sync(self, tmp_path):
        durable = StateDB.open(str(tmp_path))
        durable.commit(next(blocks(1)), sync=False)
        assert durable.last_commit.fsync_time == 0.0
        assert durable.last_commit.bytes_appended > 0
        assert durable.sync() >= 0.0
        root = durable.latest.root_hash
        durable.close()
        reopened = StateDB.open(str(tmp_path))
        assert reopened.height == 1 and reopened.latest.root_hash == root
        reopened.close()

    def test_memory_sync_is_free(self):
        memory = StateDB()
        memory.commit(next(blocks(1)), sync=False)
        assert memory.sync() == 0.0


class TestCommitReport:
    def test_durable_fields_populated(self, tmp_path):
        durable = StateDB.open(str(tmp_path))
        durable.commit(next(blocks(1)))
        report = durable.last_commit
        assert report.durable is True
        assert report.bytes_appended > 0
        assert report.fsync_time >= 0.0
        durable.close()

    def test_memory_fields_stay_zero(self):
        memory = StateDB()
        memory.commit(next(blocks(1)))
        report = memory.last_commit
        assert report.durable is False
        assert report.bytes_appended == 0


class TestObs:
    def test_commit_persisted_emitted_on_durable(self, tmp_path):
        durable = StateDB.open(str(tmp_path))
        bus = EventBus()
        durable.obs = bus
        durable.commit(next(blocks(1)))
        events = bus.of_type(CommitPersisted)
        assert len(events) == 1
        assert events[0].height == 1
        assert events[0].bytes_appended == durable.last_commit.bytes_appended
        durable.close()

    def test_commit_persisted_absent_on_memory(self):
        memory = StateDB()
        bus = EventBus()
        memory.obs = bus
        memory.commit(next(blocks(1)))
        assert bus.of_type(CommitPersisted) == []


class TestValidatorOnDurableDB:
    USERS = [Address.derive(f"duser{i}") for i in range(8)]
    TOKEN = Address.derive("dtoken")

    def _validator(self, token_contract, path):
        from repro.chain import Packer, Validator
        from repro.core import mapping_slot
        from repro.executors import SerialExecutor

        db = StateDB.open(path)
        db.deploy_contract(self.TOKEN, token_contract.code, "Token")
        bal = token_contract.slot_of("balanceOf")
        db.seed_genesis(
            {u: 10**18 for u in self.USERS},
            {StateKey(self.TOKEN, mapping_slot(u.to_word(), bal)): 10_000
             for u in self.USERS},
        )
        return Validator("durable", db, SerialExecutor(), threads=1,
                         packer=Packer(max_txs=100))

    def test_block_metrics_carry_db_io(self, token_contract, tmp_path):
        from repro.chain import Transaction

        validator = self._validator(token_contract, str(tmp_path))
        for i in range(4):
            validator.receive_transaction(Transaction(
                self.USERS[i], self.TOKEN, 0,
                token_contract.encode_call(
                    "transfer", self.USERS[(i + 1) % 8], 10 + i),
            ))
        _, execution = validator.propose_block(timestamp=100)
        metrics = execution.metrics
        assert metrics.db_bytes_appended > 0
        assert metrics.db_fsync_time >= 0.0
        root = validator.state_root()
        validator.db.close()

        # The proposed block's state survives a reopen.
        reopened = StateDB.open(str(tmp_path))
        assert reopened.latest.root_hash == root
        reopened.close()
