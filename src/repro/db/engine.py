"""``DurableBackend``: the crash-safe, prunable node store over the log.

Layers, bottom-up:

* a :class:`~repro.db.log.SegmentedLog` holding CRC-framed node records and
  per-block commit markers;
* an in-memory ``digest → (segment, offset, length)`` index rebuilt by
  recovery replay on every open (truncating any torn tail past the last
  valid commit marker);
* a bounded LRU of decoded-record bytes so hot nodes never touch the disk
  twice (``cache_hits``/``cache_misses`` feed the ``CommitPersisted`` obs
  event);
* reference-counted pruning: :meth:`compact` walks the roots inside the
  retention window, counts references to every reachable node, rewrites
  exactly the live set into fresh segments, re-asserts the retained commit
  markers, and unlinks the old segments — reclaiming every byte that was
  only reachable from expired roots, without changing any retained root.

The backend stores *encoded* nodes and never imports the trie mutation
logic; only :meth:`compact` and :meth:`fsck` decode nodes, and only to
discover child hashes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.hashing import keccak
from ..trie.nodes import BranchNode, ExtensionNode, decode_node
from .backend import CommitIO
from .faults import FaultPlan
from .log import (
    KIND_COMMIT,
    KIND_NODE,
    SegmentedLog,
    decode_commit_payload,
    decode_node_payload,
    encode_commit_payload,
    encode_node_payload,
)

DEFAULT_CACHE_NODES = 4096
DEFAULT_RETENTION = 64

_Loc = Tuple[int, int, int]  # segment id, payload offset, payload length


@dataclass
class CompactionReport:
    """Outcome of one :meth:`DurableBackend.compact` run."""

    bytes_before: int = 0
    bytes_after: int = 0
    nodes_before: int = 0
    nodes_kept: int = 0
    nodes_pruned: int = 0
    roots_retained: int = 0
    roots_dropped: int = 0

    @property
    def bytes_reclaimed(self) -> int:
        return max(self.bytes_before - self.bytes_after, 0)

    @property
    def reclaimed_fraction(self) -> float:
        return self.bytes_reclaimed / self.bytes_before if self.bytes_before else 0.0

    def render(self) -> str:
        return (
            f"compacted: {self.bytes_before} -> {self.bytes_after} bytes "
            f"({self.reclaimed_fraction:.0%} reclaimed), "
            f"kept {self.nodes_kept}/{self.nodes_before} nodes, "
            f"pruned {self.nodes_pruned}, retained {self.roots_retained} "
            f"root(s), dropped {self.roots_dropped}"
        )


@dataclass
class FsckReport:
    """Outcome of an integrity walk over every retained root."""

    roots_checked: int = 0
    nodes_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        status = "clean" if self.ok else f"{len(self.errors)} error(s)"
        lines = [
            f"fsck: {status} — {self.roots_checked} root(s), "
            f"{self.nodes_checked} reachable node(s) verified"
        ]
        lines.extend(f"  {error}" for error in self.errors)
        return "\n".join(lines)


@dataclass
class DBStats:
    """Static shape of the store, for ``repro db stats``."""

    segments: int = 0
    total_bytes: int = 0
    node_count: int = 0
    node_bytes: int = 0
    roots: int = 0
    height_min: int = -1
    height_max: int = -1
    cache_hits: int = 0
    cache_misses: int = 0
    pruned_total: int = 0
    truncated_on_recovery: int = 0

    def render(self) -> str:
        reads = self.cache_hits + self.cache_misses
        rate = self.cache_hits / reads if reads else 0.0
        heights = (
            f"{self.height_min}..{self.height_max}" if self.roots else "(none)"
        )
        return "\n".join([
            f"segments:          {self.segments}",
            f"total bytes:       {self.total_bytes}",
            f"indexed nodes:     {self.node_count} ({self.node_bytes} payload bytes)",
            f"retained roots:    {self.roots}  heights {heights}",
            f"cache:             {self.cache_hits} hits / {self.cache_misses} misses "
            f"({rate:.1%})",
            f"pruned (lifetime): {self.pruned_total}",
            f"recovery truncate: {self.truncated_on_recovery} bytes",
        ])


def reachable(
    roots: List[Optional[bytes]], get: Callable[[bytes], Optional[bytes]],
) -> List[bytes]:
    """DFS from ``roots`` over encoded nodes read with ``get``; returns the
    reachable digests in first-visit order.  Nodes are decoded only to
    find their children."""
    order: List[bytes] = []
    seen = set()
    stack = [root for root in reversed(roots) if root is not None]
    while stack:
        digest = stack.pop()
        if digest in seen:
            continue  # shared subtree: already walked
        seen.add(digest)
        order.append(digest)
        encoded = get(digest)
        if encoded is None:
            raise KeyError(f"missing trie node {digest.hex()} during walk")
        node = decode_node(encoded)
        if isinstance(node, ExtensionNode):
            stack.append(node.child)
        elif isinstance(node, BranchNode):
            for child in node.children:
                if child is not None:
                    stack.append(child)
    return order


class DurableBackend:
    """Disk-backed :class:`~repro.db.backend.NodeBackend`.

    Opening an existing directory *is* recovery: the log is replayed
    record by record, nodes become visible only once a valid commit marker
    covers them, and the physical file is truncated back to the last valid
    marker so a crashed writer leaves no trace beyond its last commit.
    """

    durable = True

    def __init__(
        self,
        directory: str,
        *,
        cache_nodes: int = DEFAULT_CACHE_NODES,
        segment_bytes: int = 4 << 20,
        retention: int = DEFAULT_RETENTION,
        faults: Optional[FaultPlan] = None,
        fsync_delay: float = 0.0,
    ) -> None:
        self.retention = retention
        self._log = SegmentedLog(
            directory, segment_bytes=segment_bytes, faults=faults,
            fsync_delay=fsync_delay,
        )
        self._index: Dict[bytes, _Loc] = {}
        self.roots: List[Tuple[int, Optional[bytes]]] = []
        self._cache: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._cache_nodes = cache_nodes
        self.cache_hits = 0
        self.cache_misses = 0
        self.pruned_total = 0
        self.truncated_on_recovery = 0
        self.last_io: Optional[CommitIO] = None
        self._mark_bytes = 0
        self._mark_hits = 0
        self._mark_misses = 0
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the index by replaying the log; drop the torn tail."""
        pending: Dict[bytes, _Loc] = {}
        seen_markers = set()
        first = self._log.segment_ids()[0]
        last_good: Tuple[int, int] = (first, 8)  # just past the magic
        for kind, payload, sid, offset, end in self._log.scan():
            if kind == KIND_NODE:
                digest, encoded = decode_node_payload(payload)
                pending[digest] = (sid, offset + 32, len(encoded))
            else:
                height, root = decode_commit_payload(payload)
                self._index.update(pending)
                pending.clear()
                # A marker may repeat an earlier (height, root) — that's a
                # compaction that re-asserted its retained roots and then
                # crashed before unlinking the old segments.  Dedup keeps
                # ``roots`` sorted and duplicate-free either way.
                if (height, root) not in seen_markers:
                    seen_markers.add((height, root))
                    self.roots.append((height, root))
                last_good = (sid, end)
        self.truncated_on_recovery = self._log.truncate_to(*last_good)
        self._mark_bytes = self._log.appended_bytes

    # ------------------------------------------------------------------
    # NodeBackend protocol
    # ------------------------------------------------------------------

    def put(self, digest: bytes, encoded: bytes) -> bool:
        if digest in self._index:
            return False  # content-addressed dedup: never re-append
        sid, offset = self._log.append(
            KIND_NODE, encode_node_payload(digest, encoded)
        )
        self._index[digest] = (sid, offset + 32, len(encoded))
        self._cache_store(digest, encoded)
        return True

    def get(self, digest: bytes) -> Optional[bytes]:
        cache = self._cache
        encoded = cache.get(digest)
        if encoded is not None:
            # Readers take no lock here: another reading thread may evict
            # ``digest`` between the lookup and the reorder.
            try:
                cache.move_to_end(digest)
            except KeyError:
                pass
            self.cache_hits += 1
            return encoded
        loc = self._index.get(digest)
        if loc is None:
            return None
        self.cache_misses += 1
        sid, offset, length = loc
        encoded = self._log.read(sid, offset, length)
        self._cache_store(digest, encoded)
        return encoded

    def commit_root(self, root: Optional[bytes], height: int,
                    sync: bool = True) -> CommitIO:
        """Append the commit marker, fsync (unless ``sync`` is false: then
        :meth:`sync` does it later), and account the block's I/O.  This is
        the durability boundary recovery rolls back to."""
        self._log.append(KIND_COMMIT, encode_commit_payload(height, root))
        fsync_time = self._log.sync() if sync else 0.0
        self.roots.append((height, root))
        io = CommitIO(
            bytes_appended=self._log.appended_bytes - self._mark_bytes,
            fsync_time=fsync_time,
            cache_hits=self.cache_hits - self._mark_hits,
            cache_misses=self.cache_misses - self._mark_misses,
        )
        self._mark_bytes = self._log.appended_bytes
        self._mark_hits = self.cache_hits
        self._mark_misses = self.cache_misses
        self._log.maybe_roll()
        self.last_io = io
        return io

    def sync(self) -> float:
        """fsync every byte appended so far; safe from a thread other than
        the one appending.  Returns the fsync seconds."""
        return self._log.sync()

    def close(self) -> None:
        self._log.close()

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._index

    def __len__(self) -> int:
        return len(self._index)

    def _cache_store(self, digest: bytes, encoded: bytes) -> None:
        cache = self._cache
        cache[digest] = encoded
        if len(cache) > self._cache_nodes:
            try:
                cache.popitem(last=False)
            except KeyError:
                pass  # another thread evicted the last surplus entry

    # ------------------------------------------------------------------
    # Pruning / compaction
    # ------------------------------------------------------------------

    def retained_roots(
        self, retention: Optional[int] = None
    ) -> List[Tuple[int, Optional[bytes]]]:
        """The commit markers inside the retention window (always at least
        the latest root, whatever the window says)."""
        window = self.retention if retention is None else retention
        if not self.roots:
            return []
        max_height = self.roots[-1][0]
        cutoff = max_height - max(window, 1) + 1
        kept = [(h, r) for h, r in self.roots if h >= cutoff]
        return kept if kept else [self.roots[-1]]

    def compact(self, retention: Optional[int] = None) -> CompactionReport:
        """Drop every node reachable only from roots outside the retention
        window.  Crash-safe: the live set is rewritten into *new* segments
        and the retained markers re-asserted *before* old segments are
        unlinked, so a crash mid-compaction recovers to either the old or
        the new layout, never a mix."""
        report = CompactionReport(
            bytes_before=self._log.total_bytes(),
            nodes_before=len(self._index),
        )
        retained = self.retained_roots(retention)
        report.roots_dropped = len(self.roots) - len(retained)
        order = reachable([root for _, root in retained], self.get)
        self._log.roll()
        first_new = self._log.active_id
        new_index: Dict[bytes, _Loc] = {}
        for digest in order:
            encoded = self.get(digest)
            sid, offset = self._log.append(
                KIND_NODE, encode_node_payload(digest, encoded)
            )
            new_index[digest] = (sid, offset + 32, len(encoded))
            self._log.maybe_roll()
        for height, root in retained:
            self._log.append(KIND_COMMIT, encode_commit_payload(height, root))
        self._log.sync()
        self._log.delete_segments_before(first_new)
        pruned = len(self._index) - len(new_index)
        self._index = new_index
        # ``list`` copies the keys in one C call, so a reorder by a reader
        # on another thread cannot break the sweep.
        for digest in [d for d in list(self._cache) if d not in new_index]:
            self._cache.pop(digest, None)
        self.roots = list(retained)
        self.pruned_total += pruned
        self._mark_bytes = self._log.appended_bytes
        report.bytes_after = self._log.total_bytes()
        report.nodes_kept = len(new_index)
        report.nodes_pruned = pruned
        report.roots_retained = len(retained)
        return report

    # ------------------------------------------------------------------
    # Integrity & stats
    # ------------------------------------------------------------------

    def fsck(self) -> FsckReport:
        """Walk every retained root verifying each reachable node exists
        and its bytes still hash to its digest (CRCs were already enforced
        by recovery replay on open)."""
        report = FsckReport()
        seen = set()
        for height, root in self.retained_roots():
            report.roots_checked += 1
            if root is None:
                continue
            stack = [root]
            while stack:
                digest = stack.pop()
                if digest in seen:
                    continue
                seen.add(digest)
                encoded = self.get(digest)
                if encoded is None:
                    report.errors.append(
                        f"height {height}: missing node {digest.hex()[:16]}"
                    )
                    continue
                if keccak(encoded) != digest:
                    report.errors.append(
                        f"height {height}: node {digest.hex()[:16]} "
                        "bytes do not match digest"
                    )
                    continue
                report.nodes_checked += 1
                node = decode_node(encoded)
                if isinstance(node, ExtensionNode):
                    stack.append(node.child)
                elif isinstance(node, BranchNode):
                    stack.extend(c for c in node.children if c is not None)
        return report

    def stats(self) -> DBStats:
        heights = [h for h, _ in self.roots]
        return DBStats(
            segments=len(self._log.segment_ids()),
            total_bytes=self._log.total_bytes(),
            node_count=len(self._index),
            node_bytes=sum(length for _, _, length in self._index.values()),
            roots=len(self.roots),
            height_min=min(heights) if heights else -1,
            height_max=max(heights) if heights else -1,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            pruned_total=self.pruned_total,
            truncated_on_recovery=self.truncated_on_recovery,
        )
