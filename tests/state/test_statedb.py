"""StateDB and snapshot tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Address, StateKey
from repro.core.errors import StateError, UnknownSnapshotError
from repro.state import StateDB

ALICE = Address.derive("alice")
BOB = Address.derive("bob")
CONTRACT = Address.derive("contract")


class TestGenesis:
    def test_empty_genesis(self):
        db = StateDB()
        assert db.height == 0
        assert db.latest.get(StateKey.balance(ALICE)) == 0

    def test_seed_balances(self):
        db = StateDB()
        db.seed_genesis({ALICE: 100, BOB: 200})
        assert db.latest.balance_of(ALICE) == 100
        assert db.latest.balance_of(BOB) == 200

    def test_seed_storage(self):
        db = StateDB()
        key = StateKey(CONTRACT, 7)
        db.seed_genesis({}, {key: 42})
        assert db.latest.get(key) == 42

    def test_seed_zero_storage_pruned(self):
        db = StateDB()
        db.seed_genesis({}, {StateKey(CONTRACT, 7): 0})
        empty = StateDB()
        empty.seed_genesis({})
        assert db.latest.root_hash == empty.latest.root_hash

    def test_seed_root_equals_per_key_inserts(self):
        # Genesis is one batched trie commit; the root must be the one a
        # key-by-key build gives, zero balances and zero slots included
        # (absent from the trie, still answered by the flat layer).
        from repro.core.encoding import encode_int
        from repro.trie import Trie

        balances = {Address.derive(f"acct{i}"): i * 1000 for i in range(40)}
        storage = {StateKey(CONTRACT, slot): slot % 3 for slot in range(60)}
        db = StateDB()
        db.seed_genesis(balances, storage)
        reference = Trie()
        for address, balance in balances.items():
            reference.set(StateKey.balance(address).trie_key(),
                          encode_int(balance))
        for key, value in storage.items():
            if value:
                reference.set(key.trie_key(), encode_int(value))
        assert db.latest.root_hash == reference.root_hash
        assert db.latest.balance_of(Address.derive("acct0")) == 0
        assert db.latest.get(StateKey(CONTRACT, 3)) == 0
        assert db.latest.get_uncached(StateKey(CONTRACT, 4)) == 1
        assert db.latest.flat_misses == 0

    def test_seed_after_commit_rejected(self):
        db = StateDB()
        db.commit({})
        with pytest.raises(StateError):
            db.seed_genesis({ALICE: 1})


class TestCommit:
    def test_commit_advances_height(self):
        db = StateDB()
        db.commit({StateKey(CONTRACT, 0): 1})
        assert db.height == 1

    def test_commit_applies_writes(self):
        db = StateDB()
        key = StateKey(CONTRACT, 0)
        db.commit({key: 99})
        assert db.latest.get(key) == 99

    def test_commit_zero_prunes(self):
        db = StateDB()
        key = StateKey(CONTRACT, 0)
        root0 = db.latest.root_hash
        db.commit({key: 5})
        db.commit({key: 0})
        assert db.latest.get(key) == 0
        assert db.latest.root_hash == root0

    def test_negative_value_rejected(self):
        db = StateDB()
        with pytest.raises(StateError):
            db.commit({StateKey(CONTRACT, 0): -1})

    def test_snapshots_immutable(self):
        db = StateDB()
        key = StateKey(CONTRACT, 0)
        db.commit({key: 1})
        old = db.snapshot(1)
        db.commit({key: 2})
        assert old.get(key) == 1
        assert db.latest.get(key) == 2

    def test_unknown_snapshot(self):
        db = StateDB()
        with pytest.raises(UnknownSnapshotError):
            db.snapshot(5)
        with pytest.raises(UnknownSnapshotError):
            db.snapshot(-1)

    def test_root_at(self):
        db = StateDB()
        root0 = db.root_at(0)
        db.commit({StateKey(CONTRACT, 0): 1})
        assert db.root_at(0) == root0
        assert db.root_at(1) != root0


class TestContracts:
    def test_deploy_and_resolve(self):
        db = StateDB()
        db.deploy_contract(CONTRACT, b"\x60\x00", "Test")
        assert db.codes.code_of(CONTRACT) == b"\x60\x00"
        assert db.codes.is_contract(CONTRACT)
        assert not db.codes.is_contract(ALICE)

    def test_double_deploy_rejected(self):
        db = StateDB()
        db.deploy_contract(CONTRACT, b"\x00")
        with pytest.raises(StateError):
            db.deploy_contract(CONTRACT, b"\x00")

    def test_empty_code_rejected(self):
        db = StateDB()
        with pytest.raises(StateError):
            db.deploy_contract(CONTRACT, b"")

    def test_account_summary(self):
        db = StateDB()
        db.deploy_contract(CONTRACT, b"\x00")
        db.seed_genesis({ALICE: 10}, {StateKey(CONTRACT, 3): 7})
        summary = db.account_summary(CONTRACT, slots=[3, 4])
        assert summary.is_contract
        assert summary.storage == {3: 7, 4: 0}
        assert db.account_summary(ALICE).balance == 10


class TestRootDeterminism:
    @given(
        st.dictionaries(
            st.integers(0, 50), st.integers(1, 2**64), min_size=1, max_size=20
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_one_commit_vs_many(self, writes):
        """Committing in one batch or one write per block yields the same
        final root (the trie is a pure function of contents)."""
        keyed = {StateKey(CONTRACT, slot): value for slot, value in writes.items()}
        db_batch = StateDB()
        db_batch.commit(keyed)
        db_steps = StateDB()
        for key, value in keyed.items():
            db_steps.commit({key: value})
        assert db_batch.latest.root_hash == db_steps.latest.root_hash
