"""A from-scratch Merkle Patricia Trie.

The trie maps byte keys to byte values and authenticates its whole contents
with a single 32-byte *root hash*: two tries hold identical data if and only
if their roots are equal (up to hash collisions).  This is exactly the
property the paper's RQ1 uses to check that DMVCC's parallel execution
produced the same state as serial execution.

Nodes live in a content-addressed :class:`NodeStore` keyed by node hash.
The store is append-only, so past roots remain readable forever — that gives
free, O(1) snapshots with structural sharing, mirroring how Geth keeps one
state trie per block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from ..core.errors import MissingNodeError, TrieError
from ..core.hashing import keccak
from ..db.backend import MemoryBackend
from .nibbles import bytes_to_nibbles, common_prefix_length, nibbles_to_bytes
from .nodes import (
    BRANCH_WIDTH,
    BranchNode,
    ExtensionNode,
    LeafNode,
    TrieNode,
    decode_node,
    node_hash,
)

EMPTY_ROOT = node_hash(LeafNode((), b""))  # sentinel; never stored

# The put-side dedup memo (node → digest) is cleared wholesale once it
# reaches this size, bounding the extra memory without LRU bookkeeping on
# the hot path.
MEMO_MAX = 1 << 15

# Decoded nodes kept in front of the backend, LRU-ordered; sized like the
# durable engine's byte cache (``db.engine.DEFAULT_CACHE_NODES``).
DECODED_MAX = 4096


class NodeStore:
    """Content-addressed storage for encoded trie nodes.

    Bytes live in a pluggable :class:`~repro.db.backend.NodeBackend`: the
    in-memory dict by default (append-only, process lifetime) or the
    durable log-structured engine (:class:`~repro.db.engine.DurableBackend`)
    when the StateDB was opened on a path.

    ``hash_count`` counts node-hash invocations; the commit pipeline and
    the state-commit benchmarks read deltas of it to compare the batched
    overlay path against the legacy per-key path.  :meth:`put` keeps a
    value-keyed memo of nodes it has already hashed, so repeated puts of an
    identical node are a dict hit — no re-encode, no re-hash, no re-store —
    and ``dedup_hits`` counts them.

    :meth:`get` serves the last ``DECODED_MAX`` nodes put or read,
    LRU-ordered, so a freshly sealed node is never decoded and a hot path
    is decoded once rather than on every read (``decoded_hits`` and
    ``decoded_misses`` count the reads).  Nodes are immutable and
    content-addressed, so an entry can never go stale; only
    :meth:`compact` drops entries, because a pruned node must read as
    missing.  The stream and commit lanes both read without a lock, so
    every cache step tolerates the other lane evicting in between.
    """

    def __init__(self, backend=None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self.hash_count = 0
        self.dedup_hits = 0
        self.decoded_hits = 0
        self.decoded_misses = 0
        self._memo: Dict[TrieNode, bytes] = {}
        self._decoded: "OrderedDict[bytes, TrieNode]" = OrderedDict()
        self._decoded_mark = (0, 0)

    def put(self, node: TrieNode) -> bytes:
        memo = self._memo
        digest = memo.get(node)
        if digest is not None:
            self.dedup_hits += 1
            return digest
        encoded = node.encode()
        digest = keccak(encoded)
        self.hash_count += 1
        self.backend.put(digest, encoded)
        if len(memo) >= MEMO_MAX:
            memo.clear()
        memo[node] = digest
        self._remember(digest, node)
        return digest

    def get(self, digest: bytes) -> TrieNode:
        decoded = self._decoded
        node = decoded.get(digest)
        if node is not None:
            self.decoded_hits += 1
            try:
                decoded.move_to_end(digest)
            except KeyError:
                pass  # evicted by the other lane since the lookup
            return node
        node = self.load(digest)
        self.decoded_misses += 1
        self._remember(digest, node)
        return node

    def _remember(self, digest: bytes, node: TrieNode) -> None:
        decoded = self._decoded
        decoded[digest] = node
        if len(decoded) > DECODED_MAX:
            try:
                decoded.popitem(last=False)
            except KeyError:
                pass  # the other lane evicted the last surplus entry

    def load(self, digest: bytes) -> TrieNode:
        """Decode ``digest`` from the backend, past the decoded cache: for
        whole-trie walks, which visit each node once and would only evict
        the hot path."""
        encoded = self.backend.get(digest)
        if encoded is None:
            raise MissingNodeError(f"missing trie node {digest.hex()}")
        return decode_node(encoded)

    def take_decoded_counts(self) -> Tuple[int, int]:
        """Decoded-cache ``(hits, misses)`` since the previous call; the
        commit path reads one delta per block."""
        hits, misses = self.decoded_hits, self.decoded_misses
        mark_hits, mark_misses = self._decoded_mark
        self._decoded_mark = (hits, misses)
        return hits - mark_hits, misses - mark_misses

    def commit_root(self, root: Optional[bytes], height: int):
        """Record a durability boundary (no-op and ``None`` in-memory);
        returns the backend's :class:`~repro.db.backend.CommitIO`."""
        return self.backend.commit_root(root, height)

    def compact(self, retention: Optional[int] = None):
        """Prune the backend (durable only) and drop the put memo and the
        decoded nodes — either may now name nodes compaction reclaimed."""
        report = self.backend.compact(retention)
        self._memo.clear()
        self._decoded.clear()
        return report

    def close(self) -> None:
        self.backend.close()

    def __len__(self) -> int:
        return len(self.backend)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.backend


class Trie:
    """Merkle Patricia Trie over a shared :class:`NodeStore`.

    Mutations update :attr:`root` in place; call :meth:`copy` to fork a
    logically independent trie sharing the same store (O(1)).
    """

    def __init__(self, store: Optional[NodeStore] = None, root: Optional[bytes] = None) -> None:
        self.store = store if store is not None else NodeStore()
        self.root: Optional[bytes] = root  # None encodes the empty trie
        # Key count, maintained incrementally so ``len()`` never walks the
        # trie.  ``None`` means unknown (a root adopted from elsewhere);
        # it is derived lazily on first ``__len__`` and kept fresh after.
        self._count: Optional[int] = 0 if root is None else None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def root_hash(self) -> bytes:
        """Root hash; the empty trie hashes to a fixed sentinel."""
        return self.root if self.root is not None else EMPTY_ROOT

    def copy(self) -> "Trie":
        """Cheap fork sharing the node store (copy-on-write semantics)."""
        fork = Trie(self.store, self.root)
        fork._count = self._count
        return fork

    def get(self, key: bytes) -> Optional[bytes]:
        """Look up ``key``; returns ``None`` when absent."""
        if self.root is None:
            return None
        return self._get(self.store.get(self.root), bytes_to_nibbles(key))

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``.  An empty value deletes the key, as in
        Ethereum (storage slots holding zero are pruned)."""
        if value == b"":
            self.delete(key)
            return
        path = bytes_to_nibbles(key)
        if self.root is None:
            self.root = self.store.put(LeafNode(path, value))
            self._bump(1)
        else:
            self.root = self._insert(self.store.get(self.root), path, value)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        if self.root is None:
            return False
        result = self._delete(self.store.get(self.root), bytes_to_nibbles(key))
        if result is _UNCHANGED:
            return False
        self.root = result
        self._bump(-1)
        return True

    def commit_batch(self, items) -> "CommitStats":
        """Apply a whole write batch through a dirty-node overlay and seal.

        ``items`` maps byte keys to byte values (empty value deletes, as in
        :meth:`set`); accepts any mapping or iterable of pairs.  Every path
        node the batch touches is expanded into an unhashed in-memory dirty
        node once, all writes mutate those dirty nodes in place (applied in
        key order so shared prefixes are visited once), and hashing happens
        exactly once per dirty node in a single post-order seal pass — the
        sealed root is byte-identical to applying the same batch through
        per-key :meth:`set`/:meth:`delete` calls, but intermediate tree
        shapes are never hashed or persisted.
        """
        from .overlay import apply_batch

        pairs = items.items() if hasattr(items, "items") else items
        self.root, stats = apply_batch(self.store, self.root, pairs)
        if self._count is not None:
            self._count += stats.inserted - stats.deleted
        return stats

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in lexicographic key order."""
        if self.root is None:
            return
        yield from self._walk(self.store.get(self.root), ())

    def __contains__(self, key: bytes) -> bool:
        if self.root is None or self._count == 0:
            return False
        return self.get(key) is not None

    def __len__(self) -> int:
        """Key count without walking: maintained incrementally by ``set``,
        ``delete``, and ``commit_batch``; derived once (then cached and kept
        fresh) for tries adopted from a pre-existing root."""
        if self._count is None:
            self._count = sum(1 for _ in self.items())
        return self._count

    def _bump(self, delta: int) -> None:
        if self._count is not None:
            self._count += delta

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _get(self, node: TrieNode, path: Tuple[int, ...]) -> Optional[bytes]:
        # Walks ``path`` by index: only a leaf or extension slices it, once.
        get = self.store.get
        pos = 0
        while True:
            if isinstance(node, LeafNode):
                return node.value if node.path == path[pos:] else None
            if isinstance(node, ExtensionNode):
                end = pos + len(node.path)
                if path[pos:end] != node.path:
                    return None
                node = get(node.child)
                pos = end
                continue
            # BranchNode
            if pos == len(path):
                return node.value
            child = node.children[path[pos]]
            if child is None:
                return None
            node = get(child)
            pos += 1

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def _insert(self, node: TrieNode, path: Tuple[int, ...], value: bytes) -> bytes:
        if isinstance(node, LeafNode):
            return self._insert_into_leaf(node, path, value)
        if isinstance(node, ExtensionNode):
            return self._insert_into_extension(node, path, value)
        return self._insert_into_branch(node, path, value)

    def _insert_into_leaf(self, node: LeafNode, path: Tuple[int, ...], value: bytes) -> bytes:
        if node.path == path:
            return self.store.put(LeafNode(path, value))
        shared = common_prefix_length(node.path, path)
        branch = BranchNode()
        branch = self._attach_tail(branch, node.path[shared:], node.value)
        branch = self._attach_tail(branch, path[shared:], value)
        self._bump(1)
        branch_hash = self.store.put(branch)
        if shared:
            return self.store.put(ExtensionNode(path[:shared], branch_hash))
        return branch_hash

    def _insert_into_extension(
        self, node: ExtensionNode, path: Tuple[int, ...], value: bytes
    ) -> bytes:
        shared = common_prefix_length(node.path, path)
        if shared == len(node.path):
            child_hash = self._insert(self.store.get(node.child), path[shared:], value)
            return self.store.put(ExtensionNode(node.path, child_hash))
        # The extension splits: the part of its path beyond the shared prefix
        # moves below a new branch.
        branch = BranchNode()
        ext_nibble = node.path[shared]
        ext_tail = node.path[shared + 1 :]
        if ext_tail:
            tail_hash = self.store.put(ExtensionNode(ext_tail, node.child))
        else:
            tail_hash = node.child
        branch = branch.with_child(ext_nibble, tail_hash)
        branch = self._attach_tail(branch, path[shared:], value)
        self._bump(1)
        branch_hash = self.store.put(branch)
        if shared:
            return self.store.put(ExtensionNode(path[:shared], branch_hash))
        return branch_hash

    def _insert_into_branch(self, node: BranchNode, path: Tuple[int, ...], value: bytes) -> bytes:
        if not path:
            if node.value is None:
                self._bump(1)
            return self.store.put(node.with_value(value))
        nibble, rest = path[0], path[1:]
        child = node.children[nibble]
        if child is None:
            child_hash = self.store.put(LeafNode(rest, value))
            self._bump(1)
        else:
            child_hash = self._insert(self.store.get(child), rest, value)
        return self.store.put(node.with_child(nibble, child_hash))

    def _attach_tail(self, branch: BranchNode, tail: Tuple[int, ...], value: bytes) -> BranchNode:
        """Attach a key tail (possibly empty) with its value under a branch."""
        if not tail:
            return branch.with_value(value)
        leaf_hash = self.store.put(LeafNode(tail[1:], value))
        return branch.with_child(tail[0], leaf_hash)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def _delete(self, node: TrieNode, path: Tuple[int, ...]):
        """Returns the replacement hash, ``None`` for an emptied subtree, or
        the ``_UNCHANGED`` sentinel when the key was absent."""
        if isinstance(node, LeafNode):
            return None if node.path == path else _UNCHANGED
        if isinstance(node, ExtensionNode):
            prefix_len = len(node.path)
            if path[:prefix_len] != node.path:
                return _UNCHANGED
            result = self._delete(self.store.get(node.child), path[prefix_len:])
            if result is _UNCHANGED:
                return _UNCHANGED
            if result is None:
                return None
            return self._normalise_extension(node.path, result)
        # BranchNode
        if not path:
            if node.value is None:
                return _UNCHANGED
            return self._normalise_branch(node.with_value(None))
        child = node.children[path[0]]
        if child is None:
            return _UNCHANGED
        result = self._delete(self.store.get(child), path[1:])
        if result is _UNCHANGED:
            return _UNCHANGED
        return self._normalise_branch(node.with_child(path[0], result))

    def _normalise_extension(self, path: Tuple[int, ...], child_hash: bytes) -> bytes:
        """Collapse extension→{extension,leaf} chains after a deletion."""
        child = self.store.get(child_hash)
        if isinstance(child, LeafNode):
            return self.store.put(LeafNode(path + child.path, child.value))
        if isinstance(child, ExtensionNode):
            return self.store.put(ExtensionNode(path + child.path, child.child))
        return self.store.put(ExtensionNode(path, child_hash))

    def _normalise_branch(self, branch: BranchNode):
        """Shrink branches left with <2 references back to compact nodes."""
        live = branch.live_children()
        if branch.value is not None:
            if not live:
                return self.store.put(LeafNode((), branch.value))
            return self.store.put(branch)
        if len(live) == 0:
            return None
        if len(live) == 1:
            nibble, child_hash = live[0]
            return self._normalise_extension((nibble,), child_hash)
        return self.store.put(branch)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def _walk(self, node: TrieNode, prefix: Tuple[int, ...]) -> Iterator[Tuple[bytes, bytes]]:
        if isinstance(node, LeafNode):
            yield nibbles_to_bytes(prefix + node.path), node.value
            return
        if isinstance(node, ExtensionNode):
            yield from self._walk(self.store.load(node.child), prefix + node.path)
            return
        if node.value is not None:
            yield nibbles_to_bytes(prefix), node.value
        for nibble, child in node.live_children():
            yield from self._walk(self.store.load(child), prefix + (nibble,))


_UNCHANGED = object()


def verify_consistency(trie: Trie) -> int:
    """Walk the whole trie verifying every child hash resolves; returns the
    number of leaves.  Used by tests and failure-injection checks."""
    count = 0
    for _key, value in trie.items():
        if not isinstance(value, bytes):
            raise TrieError("non-bytes value in trie")
        count += 1
    return count
