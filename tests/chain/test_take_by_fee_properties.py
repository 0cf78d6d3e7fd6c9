"""``TransactionPool.take_by_fee`` picks exactly what a full rescan picks.

The pool packs from a heap of sender heads.  The reference below is the
loop it replaced: keep a nonce cursor per sender and, for every pick,
rescan every sender's head for the best ``(-fee, arrival)``.  Two pools
run the same random operations in lockstep, one packing each way, and
must hand out the same transactions in the same order and keep the same
contents.  The operations cover nonce gaps, replace-by-fee, ``reinsert``
of packed entries, duplicate fees, capacity evictions, ``mark_included``
and both ``nonce_tracking`` modes.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings, strategies as st

from repro.chain import Transaction, TransactionPool
from repro.chain.txpool import PooledTransaction
from repro.core import Address

SENDERS = [Address.derive(f"sender-{i}") for i in range(4)]
TARGET = Address.derive("target")


def reference_take_by_fee(pool: TransactionPool, count: int) -> List[PooledTransaction]:
    """The cursor loop: one rescan of every sender's head per pick."""
    if not pool.nonce_tracking:
        order = sorted(pool._pool.values(), key=lambda p: (-p.fee, p.arrival))
        taken = order[:count]
        for pooled in taken:
            pool._drop(pooled.tx.tx_hash, "taken")
        return taken
    cursors: Dict[Address, int] = {
        sender: pool.floor_of(sender) for sender in pool._by_sender
    }
    taken = []
    while len(taken) < count:
        head_best: Optional[PooledTransaction] = None
        for sender, nonce in cursors.items():
            tx_hash = pool._by_sender.get(sender, {}).get(nonce)
            if tx_hash is None:
                continue
            pooled = pool._pool[tx_hash]
            if head_best is None or (-pooled.fee, pooled.arrival) < (
                -head_best.fee, head_best.arrival
            ):
                head_best = pooled
        if head_best is None:
            break
        cursors[head_best.tx.sender] = head_best.tx.nonce + 1
        pool._drop(head_best.tx.tx_hash, "taken")
        taken.append(head_best)
    return taken


add_args = st.tuples(
    st.integers(0, len(SENDERS) - 1),   # sender
    st.integers(0, 3),                  # nonce: gaps and collisions
    st.integers(0, 2),                  # fee: duplicates and replace-by-fee
    st.integers(1, 3),                  # value: distinct hashes per slot
)
after_adds = st.one_of(
    st.tuples(st.just("take"), st.integers(0, 6)),
    st.tuples(st.just("reinsert"), st.integers(0, 50)),
    st.tuples(st.just("include"), st.integers(0, 50)),
)
# Rounds of a few admissions followed by one pool operation, so most takes
# see several competing sender heads.
rounds = st.lists(
    st.tuples(st.lists(add_args, min_size=1, max_size=6), after_adds),
    min_size=1, max_size=10,
)


def hashes(taken: List[PooledTransaction]) -> List[bytes]:
    return [pooled.tx.tx_hash for pooled in taken]


@settings(max_examples=200, deadline=None)
@given(
    rounds=rounds,
    nonce_tracking=st.booleans(),
    max_size=st.sampled_from([4, 8, 100]),
)
def test_heap_take_by_fee_matches_the_rescan(rounds, nonce_tracking, max_size):
    pools = [
        TransactionPool(max_size=max_size, nonce_tracking=nonce_tracking)
        for _ in range(2)
    ]
    heap_pool, scan_pool = pools
    packed: List[List[PooledTransaction]] = [[], []]
    for adds, (op, arg) in rounds:
        for sender, nonce, fee, value in adds:
            tx = Transaction(SENDERS[sender], TARGET, value=value,
                             nonce=nonce, fee=fee)
            results = [pool.add(tx) for pool in pools]
            assert results[0] == results[1]
        if op == "take":
            got = heap_pool.take_by_fee(arg)
            want = reference_take_by_fee(scan_pool, arg)
            assert hashes(got) == hashes(want)
            packed[0].extend(got)
            packed[1].extend(want)
        elif packed[0]:
            index = arg % len(packed[0])
            if op == "reinsert":
                heap_pool.reinsert(packed[0][index])
                scan_pool.reinsert(packed[1][index])
            else:
                included = [packed[0][index].tx]
                assert (heap_pool.mark_included(included)
                        == scan_pool.mark_included(included))
        assert list(heap_pool._pool) == list(scan_pool._pool)
    # Drain both: the remaining order must agree as well.
    assert hashes(heap_pool.take_by_fee(1_000)) == hashes(
        reference_take_by_fee(scan_pool, 1_000))
