"""The node caches both pipeline lanes read without a lock.

The stream lane reads the latest snapshot while the commit lane seals the
next block, so a cache lookup on one lane can interleave with an eviction
on the other.  A committing thread and two reading threads hammer a
two-entry cache with the interpreter asked to switch threads as often as
it can; no interleaving may raise and every read must return the right
bytes or node.  How often threads really
switch depends on the host's timer, so the one interleaving that used to
raise (the other lane evicting a hit between its lookup and its LRU
reorder) is also forced deterministically.
"""

import random
import sys
import threading
from collections import OrderedDict

import pytest

from repro.core.hashing import keccak
from repro.db.engine import DurableBackend
from repro.trie import mpt
from repro.trie.mpt import NodeStore
from repro.trie.nodes import LeafNode

ROUNDS = 20_000


class EvictedAfterLookup(OrderedDict):
    """A cache whose every hit the other lane evicts right after the
    lookup returns."""

    def get(self, key, default=None):
        value = super().get(key, default)
        self.pop(key, None)
        return value


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_lanes(*lanes):
    errors = []

    def guarded(lane):
        try:
            lane()
        except Exception as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(lane,)) for lane in lanes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def record(i: int):
    encoded = b"node-%d" % i
    return keccak(encoded), encoded


def test_byte_cache_tolerates_two_lanes(tmp_path, fast_switching):
    backend = DurableBackend(str(tmp_path), cache_nodes=2)
    try:
        stored = [record(i) for i in range(16)]
        for digest, encoded in stored:
            backend.put(digest, encoded)

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(ROUNDS):
                digest, encoded = rng.choice(stored)
                assert backend.get(digest) == encoded

        def committer():
            rng = random.Random(2)
            for i in range(ROUNDS):
                if i % 2:
                    digest, encoded = record(1000 + i)
                    backend.put(digest, encoded)
                else:
                    digest, encoded = rng.choice(stored)
                assert backend.get(digest) == encoded

        run_lanes(lambda: reader(1), lambda: reader(3), committer)
        assert len(backend._cache) <= 2
    finally:
        backend.close()


@pytest.mark.parametrize("durable", [False, True])
def test_decoded_cache_tolerates_two_lanes(tmp_path, monkeypatch,
                                           fast_switching, durable):
    monkeypatch.setattr(mpt, "DECODED_MAX", 2)
    backend = DurableBackend(str(tmp_path), cache_nodes=2) if durable else None
    store = NodeStore(backend)
    try:
        nodes = [LeafNode((i % 16, i // 16), b"v%d" % i) for i in range(16)]
        stored = [(store.put(node), node) for node in nodes]

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(ROUNDS):
                digest, node = rng.choice(stored)
                assert store.get(digest) == node

        def committer():
            rng = random.Random(4)
            for i in range(ROUNDS):
                if i % 2:
                    node = LeafNode((i % 16,), b"w%d" % i)
                    digest = store.put(node)
                else:
                    digest, node = rng.choice(stored)
                assert store.get(digest) == node

        run_lanes(lambda: reader(3), lambda: reader(5), committer)
        assert len(store._decoded) <= 2
    finally:
        store.close()


def test_byte_cache_hit_evicted_before_its_reorder(tmp_path):
    backend = DurableBackend(str(tmp_path), cache_nodes=2)
    try:
        digest, encoded = record(7)
        backend.put(digest, encoded)
        backend._cache = EvictedAfterLookup(backend._cache)
        assert backend.get(digest) == encoded
        assert backend.get(digest) == encoded   # now a miss: read from the log
    finally:
        backend.close()


def test_decoded_hit_evicted_before_its_reorder():
    store = NodeStore()
    node = LeafNode((5, 6), b"leaf")
    digest = store.put(node)
    store._decoded = EvictedAfterLookup(store._decoded)
    assert store.get(digest) is node
    assert store.get(digest) == node            # now a miss: decoded again
    assert (store.decoded_hits, store.decoded_misses) == (1, 1)
