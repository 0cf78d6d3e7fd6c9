"""The ``NodeBackend`` protocol and its in-memory reference implementation.

A backend stores *encoded* trie nodes keyed by their 32-byte content hash
and records commit markers.  :class:`~repro.trie.mpt.NodeStore` writes
through whichever backend it is given, so the whole stack above it —
``Trie``, ``TrieOverlay.seal``, ``StateDB.commit``, the validator — is
agnostic to whether state lives in a dict (:class:`MemoryBackend`, the
default; tests unchanged) or on disk
(:class:`~repro.db.engine.DurableBackend`, via ``StateDB.open(path)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

try:  # Protocol is 3.8+; keep a graceful fallback for exotic interpreters.
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


@dataclass
class CommitIO:
    """What one durable commit cost, surfaced into ``CommitReport``,
    ``BlockMetrics`` and the ``CommitPersisted`` obs event.

    ``cache_hits``/``cache_misses`` are the node-cache deltas accumulated
    since the previous commit marker (the reads this block's execution and
    sealing performed); ``pruned_nodes`` is non-zero only when this commit
    triggered an automatic compaction.
    """

    bytes_appended: int = 0
    fsync_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    pruned_nodes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        reads = self.cache_hits + self.cache_misses
        return self.cache_hits / reads if reads else 0.0


class NodeBackend(Protocol):
    """Storage contract under the state trie.

    ``put`` must be idempotent per digest (content-addressed storage);
    returning ``False`` signals the digest was already present, which is
    the dedup fast path durable backends use to avoid re-appending bytes.
    ``get`` returns the encoded node or ``None`` when absent.
    ``commit_root`` records a durability boundary and returns the
    :class:`CommitIO` it cost (``None`` for non-durable backends); with
    ``sync=False`` the boundary is written but not yet fsynced, and a later
    ``sync`` (which may run on another thread) makes it durable.
    """

    def put(self, digest: bytes, encoded: bytes) -> bool: ...

    def get(self, digest: bytes) -> Optional[bytes]: ...

    def commit_root(self, root: Optional[bytes], height: int,
                    sync: bool = True) -> Optional[CommitIO]: ...

    def sync(self) -> float: ...

    def close(self) -> None: ...

    def __contains__(self, digest: bytes) -> bool: ...

    def __len__(self) -> int: ...


class MemoryBackend:
    """The original behaviour: a process-lifetime dict, no durability.

    ``commit_root`` is a no-op returning ``None`` so the commit path above
    stays branch-cheap when running in-memory.
    """

    durable = False

    def __init__(self) -> None:
        self._nodes: Dict[bytes, bytes] = {}

    def put(self, digest: bytes, encoded: bytes) -> bool:
        if digest in self._nodes:
            return False
        self._nodes[digest] = encoded
        return True

    def get(self, digest: bytes) -> Optional[bytes]:
        return self._nodes.get(digest)

    def commit_root(self, root: Optional[bytes], height: int,
                    sync: bool = True) -> Optional[CommitIO]:
        return None

    def sync(self) -> float:
        return 0.0

    def close(self) -> None:
        pass

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)
