"""Transaction and block structure tests."""

import dataclasses
import pickle

import pytest

from repro.chain import (
    Block,
    GENESIS_PARENT,
    Transaction,
    make_block,
    transactions_root,
    validate_block_shape,
)
from repro.core import Address
from repro.core.errors import InvalidBlock, InvalidTransaction

ALICE = Address.derive("alice")
BOB = Address.derive("bob")
MINER = Address.derive("miner")


class TestTransaction:
    def test_hash_deterministic(self):
        tx1 = Transaction(ALICE, BOB, 5)
        tx2 = Transaction(ALICE, BOB, 5)
        assert tx1.tx_hash == tx2.tx_hash

    def test_hash_sensitive_to_fields(self):
        base = Transaction(ALICE, BOB, 5)
        assert base.tx_hash != Transaction(ALICE, BOB, 6).tx_hash
        assert base.tx_hash != Transaction(BOB, ALICE, 5).tx_hash
        assert base.tx_hash != Transaction(ALICE, BOB, 5, b"\x01").tx_hash
        assert base.tx_hash != Transaction(ALICE, BOB, 5, nonce=1).tx_hash

    def test_label_excluded_from_identity(self):
        assert Transaction(ALICE, BOB, 5, label="a") == Transaction(ALICE, BOB, 5, label="b")

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidTransaction):
            Transaction(ALICE, BOB, -1)

    def test_zero_gas_rejected(self):
        with pytest.raises(InvalidTransaction):
            Transaction(ALICE, BOB, 1, gas_limit=0)

    def test_is_transfer(self):
        assert Transaction(ALICE, BOB, 1).is_transfer
        assert not Transaction(ALICE, BOB, 1, b"\x01\x02\x03\x04").is_transfer


class TestMemoisedHash:
    def test_memoised_hash_equals_a_fresh_computation(self):
        tx = Transaction(ALICE, BOB, 5, b"\x01", nonce=3, fee=7)
        first = tx.tx_hash
        assert tx.tx_hash is first  # computed once
        assert first == Transaction.tx_hash.func(tx)

    def test_hash_survives_a_pickle_round_trip(self):
        tx = Transaction(ALICE, BOB, 5, nonce=2)
        memoised = tx.tx_hash
        clone = pickle.loads(pickle.dumps(tx))
        assert clone == tx
        assert clone.tx_hash == memoised == Transaction.tx_hash.func(clone)
        unhashed = pickle.loads(pickle.dumps(Transaction(ALICE, BOB, 5, nonce=2)))
        assert unhashed.tx_hash == memoised

    def test_replace_yields_the_new_transactions_own_hash(self):
        tx = Transaction(ALICE, BOB, 5, nonce=1)
        old = tx.tx_hash
        bumped = dataclasses.replace(tx, nonce=2)
        assert bumped.tx_hash != old
        assert bumped.tx_hash == Transaction(ALICE, BOB, 5, nonce=2).tx_hash
        assert tx.tx_hash == old


class TestBlock:
    def _block(self, txs, number=1, parent=GENESIS_PARENT):
        return make_block(
            number=number,
            parent_hash=parent,
            state_root=b"\x01" * 32,
            txs=txs,
            timestamp=1000,
            miner=MINER,
        )

    def test_tx_root_order_sensitive(self):
        tx1 = Transaction(ALICE, BOB, 1)
        tx2 = Transaction(BOB, ALICE, 2)
        assert transactions_root([tx1, tx2]) != transactions_root([tx2, tx1])

    def test_block_hash_covers_state_root(self):
        block_a = self._block([])
        block_b = make_block(1, GENESIS_PARENT, b"\x02" * 32, [], 1000, MINER)
        assert block_a.block_hash != block_b.block_hash

    def test_validate_linkage(self):
        parent = self._block([])
        child = make_block(2, parent.block_hash, b"\x01" * 32, [], 1001, MINER)
        validate_block_shape(child, parent.header)  # no raise

    def test_bad_parent_rejected(self):
        parent = self._block([])
        orphan = make_block(2, b"\xff" * 32, b"\x01" * 32, [], 1001, MINER)
        with pytest.raises(InvalidBlock):
            validate_block_shape(orphan, parent.header)

    def test_bad_number_rejected(self):
        parent = self._block([])
        child = make_block(5, parent.block_hash, b"\x01" * 32, [], 1001, MINER)
        with pytest.raises(InvalidBlock):
            validate_block_shape(child, parent.header)

    def test_tampered_tx_list_rejected(self):
        parent = self._block([])
        txs = [Transaction(ALICE, BOB, 1)]
        child = make_block(2, parent.block_hash, b"\x01" * 32, txs, 1001, MINER)
        tampered = Block(child.header, (Transaction(ALICE, BOB, 2),))
        with pytest.raises(InvalidBlock):
            validate_block_shape(tampered, parent.header)

    def test_len(self):
        assert len(self._block([Transaction(ALICE, BOB, 1)])) == 1
