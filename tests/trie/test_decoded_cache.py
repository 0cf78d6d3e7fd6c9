"""``NodeStore``'s decoded-node cache: bounded, shared, and pruned with the
store it fronts."""

import pytest

from repro.core.errors import MissingNodeError
from repro.db.engine import DurableBackend
from repro.trie import mpt
from repro.trie.mpt import NodeStore, Trie
from repro.trie.nodes import LeafNode


def test_the_bound_holds(monkeypatch):
    monkeypatch.setattr(mpt, "DECODED_MAX", 8)
    store = NodeStore()
    digests = [store.put(LeafNode((i % 16,), b"v%d" % i)) for i in range(40)]
    assert len(store._decoded) == 8
    for digest in digests:
        store.get(digest)
        assert len(store._decoded) <= 8
    # The oldest entries went first: the last eight reads are all hits.
    hits = store.decoded_hits
    for digest in digests[-8:]:
        store.get(digest)
    assert store.decoded_hits == hits + 8


def test_a_hit_returns_the_same_node_object():
    backend_only = NodeStore()
    digest = backend_only.put(LeafNode((1, 2), b"value"))
    reader = NodeStore(backend_only.backend)   # nothing cached yet
    first = reader.get(digest)
    assert reader.decoded_misses == 1
    assert reader.get(digest) is first
    assert reader.decoded_hits == 1
    assert first == LeafNode((1, 2), b"value")


def test_sealed_nodes_are_served_without_decoding():
    store = NodeStore()
    trie = Trie(store)
    trie.commit_batch({b"key-%02d" % i: b"v%d" % i for i in range(32)})
    assert trie.get(b"key-07") == b"v7"
    assert store.decoded_misses == 0


def test_decoded_counts_are_deltas():
    store = NodeStore()
    digest = store.put(LeafNode((3,), b"x"))
    store.get(digest)
    assert store.take_decoded_counts() == (1, 0)
    assert store.take_decoded_counts() == (0, 0)


def test_a_pruned_root_still_raises_after_compaction(tmp_path):
    store = NodeStore(DurableBackend(str(tmp_path), retention=1))
    try:
        old = Trie(store)
        old.commit_batch({b"alpha": b"1", b"beta": b"2"})
        store.commit_root(old.root, 1)
        new = old.copy()
        new.commit_batch({b"alpha": b"3"})
        store.commit_root(new.root, 2)
        assert old.get(b"alpha") == b"1"      # cached before the prune
        report = store.compact()
        assert report.nodes_pruned > 0
        assert new.get(b"alpha") == b"3"
        with pytest.raises(MissingNodeError):
            old.get(b"alpha")
    finally:
        store.close()
