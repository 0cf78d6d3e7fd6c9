"""StateDB: the chain of per-block state snapshots.

Following the paper, ``S^l`` is the blockchain state after executing every
transaction up to block ``l``; the set of all snapshots is the *StateDB*.
Each snapshot is one Merkle Patricia Trie root over a shared node store, so
creating a snapshot is O(1) and historical snapshots stay readable (the SAG
analyzer reads from the *latest committed* snapshot while the next block is
still executing).

Values are 256-bit words.  Zero-valued items are pruned from the trie, which
makes the root hash canonical: writing an explicit zero and never writing at
all produce identical roots — the property RQ1's Merkle-root comparison
relies on.

Two performance layers sit on top of the authenticated trie (see
``docs/STATE.md``):

* **Batched commits** — :meth:`StateDB.commit` applies the whole write
  batch through a dirty-node overlay (:mod:`repro.trie.overlay`) and hashes
  each touched node exactly once in a single seal pass.  The legacy per-key
  path is kept callable behind ``legacy=True`` purely as a differential
  oracle (``repro verify`` asserts both paths seal byte-identical roots).
* **Flat read cache** — every :class:`Snapshot` carries a flat key→value
  dict seeded from the commit's write batch on top of its parent's flat
  layer, plus a bounded LRU for cold keys, so the SLOAD hot path is an O(1)
  dict hit instead of an O(depth) trie walk.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.encoding import decode_int, encode_int
from ..core.errors import StateError, UnknownSnapshotError
from ..core.types import Address, StateKey
from ..trie.mpt import NodeStore, Trie
from .account import AccountSummary, CodeRegistry, ContractMeta

# Flat-layer sizing: the seeded dict is copied parent→child on every commit,
# so it is capped (beyond the cap a fresh layer is seeded from the write
# batch alone); cold keys resolved through the trie land in a bounded LRU.
FLAT_LAYER_MAX = 1 << 16
FLAT_LRU_SIZE = 4096

_MISS = object()


@dataclass
class CommitReport:
    """Everything one :meth:`StateDB.commit` did, for metrics and obs.

    ``flat_hits``/``flat_misses`` are the *parent* snapshot's cumulative
    read-cache counters at commit time — the reads served while this
    block was executing against it.
    """

    height: int = 0
    writes: int = 0            # batch entries with a non-zero value
    deletes: int = 0           # batch entries pruning a slot (zero value)
    nodes_sealed: int = 0      # trie nodes persisted by this commit
    hashes_computed: int = 0   # node-hash invocations this commit paid
    wall_time: float = 0.0     # seconds of real time in the commit
    legacy: bool = False       # True when the per-key oracle path ran
    root: bytes = b""
    flat_hits: int = 0
    flat_misses: int = 0
    decoded_hits: int = 0      # decoded-node cache hits since the last commit
    decoded_misses: int = 0    # node reads that decoded backend bytes
    # Durable-backend accounting (zero when running in-memory):
    durable: bool = False
    bytes_appended: int = 0    # log bytes this commit added (nodes + marker)
    fsync_time: float = 0.0    # seconds inside fsync at the commit marker
    db_cache_hits: int = 0     # node-cache hits since the previous marker
    db_cache_misses: int = 0   # node-cache misses (disk reads) since then
    pruned_nodes: int = 0      # nodes reclaimed by auto-compaction, if any


class Snapshot:
    """Read-only view of the state at one block height.

    Reads consult, in order: the flat layer (authoritative values seeded
    from commit write batches), a bounded per-snapshot LRU of values already
    resolved through the trie, and finally the trie itself.  ``flat_hits``
    and ``flat_misses`` count cache hits (either layer) versus trie walks.
    """

    def __init__(
        self,
        trie: Trie,
        height: int,
        flat: Optional[Dict[StateKey, int]] = None,
    ) -> None:
        self._trie = trie
        self.height = height
        self._flat: Dict[StateKey, int] = flat if flat is not None else {}
        self._lru: "OrderedDict[StateKey, int]" = OrderedDict()
        self.flat_hits = 0
        self.flat_misses = 0

    @property
    def root_hash(self) -> bytes:
        return self._trie.root_hash

    def get(self, key: StateKey) -> int:
        """Read one state item; absent items read as zero (EVM semantics)."""
        value = self._flat.get(key, _MISS)
        if value is not _MISS:
            self.flat_hits += 1
            return value
        lru = self._lru
        value = lru.get(key, _MISS)
        if value is not _MISS:
            lru.move_to_end(key)
            self.flat_hits += 1
            return value
        self.flat_misses += 1
        value = self.get_uncached(key)
        lru[key] = value
        if len(lru) > FLAT_LRU_SIZE:
            lru.popitem(last=False)
        return value

    def get_uncached(self, key: StateKey) -> int:
        """Read straight through the trie (an O(depth) nibble walk),
        bypassing and not populating the flat/LRU layers.  The read path
        the flat cache replaces; kept for benchmarks and oracles."""
        raw = self._trie.get(key.trie_key())
        return decode_int(raw) if raw is not None else 0

    def flat_counts(self) -> Tuple[int, int]:
        """Cumulative ``(hits, misses)`` of reads through this view."""
        return self.flat_hits, self.flat_misses

    def balance_of(self, address: Address) -> int:
        return self.get(StateKey.balance(address))

    def nonce_of(self, address: Address) -> int:
        return self.get(StateKey.nonce(address))

    def items(self) -> Iterable[Tuple[bytes, bytes]]:
        return self._trie.items()

    def __repr__(self) -> str:
        return f"Snapshot(height={self.height}, root={self.root_hash.hex()[:12]}…)"


class StateDB:
    """Chain of snapshots plus the contract-code registry.

    ``StateDB()`` keeps every trie node in a process-lifetime dict exactly
    as before; ``StateDB.open(path)`` routes the same write path through
    the durable log-structured engine (``repro.db``), adds a commit marker
    + fsync per block, and recovers the snapshot chain from the log on
    reopen.  All sealing logic is shared — the roots are byte-identical
    either way (``repro verify --backend durable`` fuzzes this).
    """

    def __init__(self, backend=None) -> None:
        self._store = NodeStore(backend)
        genesis = Trie(self._store)
        self._snapshots: List[Snapshot] = [Snapshot(genesis, 0)]
        self.codes = CodeRegistry()
        self.obs = None  # optional EventBus: CommitStarted/CommitSealed
        self.last_commit: Optional[CommitReport] = None
        self.auto_compact_every = 0  # durable only: compact every N commits

    @classmethod
    def open(
        cls,
        path: str,
        *,
        retention: int = 64,
        cache_nodes: int = 4096,
        segment_bytes: int = 4 << 20,
        auto_compact_every: int = 0,
        faults=None,
        fsync_delay: float = 0.0,
    ) -> "StateDB":
        """Open (or create) a durable StateDB rooted at ``path``.

        Opening is recovery: the node log is replayed, any torn tail past
        the last valid commit marker is truncated away, and the snapshot
        chain is rebuilt from the recovered commit markers.  Heights below
        the pruning horizon are simply absent (``snapshot`` raises
        :class:`UnknownSnapshotError` for them).

        ``fsync_delay`` adds an emulated per-fsync latency (seconds) for
        benchmarking — see :class:`~repro.db.log.SegmentedLog`.
        """
        from ..db.engine import DurableBackend

        backend = DurableBackend(
            path,
            retention=retention,
            cache_nodes=cache_nodes,
            segment_bytes=segment_bytes,
            faults=faults,
            fsync_delay=fsync_delay,
        )
        db = cls(backend)
        db.auto_compact_every = auto_compact_every
        roots = backend.roots
        if roots:
            snaps: List[Snapshot] = []
            if roots[0][0] == 1:
                # Un-seeded genesis was never sealed with a marker; the
                # empty trie at height 0 is reconstructible for free.
                snaps.append(Snapshot(Trie(db._store), 0))
            for height, root in roots:
                snaps.append(Snapshot(Trie(db._store, root), height))
            db._snapshots = snaps
        return db

    @property
    def durable(self) -> bool:
        return getattr(self._store.backend, "durable", False)

    def close(self) -> None:
        self._store.close()

    def sync(self) -> float:
        """fsync everything committed so far (durable only; may run on a
        thread other than the committing one).  Returns the fsync seconds,
        0.0 in-memory."""
        return self._store.sync()

    def compact(self, retention: Optional[int] = None):
        """Prune nodes only reachable from roots outside the retention
        window (durable only); drops in-memory snapshots for the pruned
        heights so reads can't chase reclaimed nodes."""
        report = self._store.compact(retention)
        kept = {h for h, _ in self._store.backend.roots}
        self._snapshots = [s for s in self._snapshots if s.height in kept]
        return report

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the latest snapshot (genesis is height 0)."""
        return self._snapshots[-1].height

    @property
    def latest(self) -> Snapshot:
        return self._snapshots[-1]

    def snapshot(self, height: int) -> Snapshot:
        """Snapshot at ``height``.  After recovery or pruning the chain may
        not start at genesis, so heights are mapped through the retained
        base rather than indexed directly."""
        base = self._snapshots[0].height
        index = height - base
        if not 0 <= index < len(self._snapshots):
            raise UnknownSnapshotError(f"no snapshot at height {height}")
        snapshot = self._snapshots[index]
        if snapshot.height != height:  # non-contiguous retained chain
            for candidate in self._snapshots:
                if candidate.height == height:
                    return candidate
            raise UnknownSnapshotError(f"no snapshot at height {height}")
        return snapshot

    def root_at(self, height: int) -> bytes:
        return self.snapshot(height).root_hash

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(
        self,
        writes: Mapping[StateKey, int],
        *,
        legacy: bool = False,
        sync: bool = True,
    ) -> Snapshot:
        """Apply a batch of final writes and seal a new snapshot.

        This is the paper's commit phase: the last write of every access
        sequence is flushed into the MPT and ``S^l`` is created.  Writes of
        zero prune the slot so roots stay canonical — the sealed root is a
        pure function of the surviving contents, independent of batch
        iteration order.

        The default path routes the whole batch through the dirty-node
        overlay (one hash per touched node, sealed post-order); pass
        ``legacy=True`` to run the original one-``Trie.set``-per-key path —
        kept callable exactly so ``repro verify`` can assert both paths
        produce byte-identical roots on every fuzz block.

        On a durable store the commit marker is fsynced before this
        returns; with ``sync=False`` it is only written, and the caller
        makes it durable with :meth:`sync` (the pipeline's commit lane).
        """
        for key, value in writes.items():
            if value < 0:
                raise StateError(f"negative value for {key}: {value}")
        parent = self._snapshots[-1]
        height = parent.height + 1
        obs = self.obs
        if obs is not None:
            obs.commit_started(0.0, height, len(writes))
        start = time.perf_counter()
        trie = parent._trie.copy()
        store = trie.store
        base_hashes = store.hash_count
        report = CommitReport(
            height=height,
            legacy=legacy,
            flat_hits=parent.flat_hits,
            flat_misses=parent.flat_misses,
        )
        if legacy:
            for key, value in sorted(writes.items()):
                trie.set(key.trie_key(), encode_int(value))
                if value:
                    report.writes += 1
                else:
                    report.deletes += 1
            report.nodes_sealed = store.hash_count - base_hashes
        else:
            stats = trie.commit_batch(
                (key.trie_key(), encode_int(value)) for key, value in writes.items()
            )
            report.writes = stats.writes
            report.deletes = stats.deletes
            report.nodes_sealed = stats.nodes_sealed
        report.hashes_computed = store.hash_count - base_hashes
        report.decoded_hits, report.decoded_misses = store.take_decoded_counts()
        io = self._store.commit_root(trie.root, height, sync)
        if io is not None:
            report.durable = True
            report.bytes_appended = io.bytes_appended
            report.fsync_time = io.fsync_time
            report.db_cache_hits = io.cache_hits
            report.db_cache_misses = io.cache_misses
        if (
            io is not None
            and self.auto_compact_every
            and height % self.auto_compact_every == 0
        ):
            report.pruned_nodes = self.compact().nodes_pruned
        report.wall_time = time.perf_counter() - start
        report.root = trie.root_hash
        snapshot = Snapshot(trie, height, flat=self._seed_flat(parent, writes))
        self._snapshots.append(snapshot)
        self.last_commit = report
        if obs is not None:
            obs.commit_sealed(
                report.wall_time, height, len(writes),
                nodes_sealed=report.nodes_sealed,
                hashes_computed=report.hashes_computed,
                wall_time=report.wall_time,
                flat_hits=report.flat_hits,
                flat_misses=report.flat_misses,
            )
            if io is not None:
                obs.commit_persisted(
                    report.wall_time, height,
                    bytes_appended=io.bytes_appended,
                    fsync_time=io.fsync_time,
                    cache_hits=io.cache_hits,
                    cache_misses=io.cache_misses,
                    pruned_nodes=report.pruned_nodes,
                )
        return snapshot

    @staticmethod
    def _seed_flat(parent: Snapshot, writes: Mapping[StateKey, int]) -> Dict[StateKey, int]:
        """The child's flat layer: the parent's layer shadowed by the write
        batch.  Beyond ``FLAT_LAYER_MAX`` the inherited layer is dropped
        (reads fall back to the per-snapshot LRU and the trie) so the
        parent→child copy stays bounded."""
        if len(parent._flat) <= FLAT_LAYER_MAX:
            flat = dict(parent._flat)
        else:
            flat = {}
        flat.update(writes)
        return flat

    def mirror_durable(self, path: str, **open_kwargs) -> "StateDB":
        """Open a fresh durable StateDB at ``path`` seeded with this DB's
        latest snapshot contents and sharing its code registry.

        The mirror holds the very nodes of this DB's latest trie: each node
        reachable from the latest root is copied as its encoded bytes
        (decoded only to find its children), so the root is byte-identical
        and committing the same write batches to both keeps them
        root-equal — how ``repro profile --durable`` measures on-disk
        commit costs on the exact same workload.
        """
        from ..db.engine import reachable

        mirror = StateDB.open(path, **open_kwargs)
        target = mirror._store.backend
        if len(target):
            raise StateError(f"mirror target {path} is not a fresh store")
        source = self.latest._trie
        get = self._store.backend.get
        for digest in reachable([source.root], get):
            target.put(digest, get(digest))
        mirror._store.commit_root(source.root, self.height)
        mirror._snapshots = [
            Snapshot(Trie(mirror._store, source.root), self.height)]
        mirror.codes = self.codes
        return mirror

    def fork(self) -> "StateDB":
        """A logically independent StateDB starting from this one's history.

        The content-addressed node store is shared (append-only, so commits
        on one fork can never corrupt another), as is the immutable code
        registry; the snapshot chain is copied.  This is how simulations
        give every validator its own chain without re-seeding genesis.
        """
        fork = StateDB.__new__(StateDB)
        fork._store = self._store
        fork._snapshots = list(self._snapshots)
        fork.codes = self.codes
        fork.obs = None
        fork.last_commit = None
        fork.auto_compact_every = 0
        return fork

    # ------------------------------------------------------------------
    # Genesis & conveniences
    # ------------------------------------------------------------------

    def seed_genesis(
        self,
        balances: Mapping[Address, int],
        storage: Optional[Mapping[StateKey, int]] = None,
    ) -> Snapshot:
        """Replace the genesis snapshot with funded accounts and optional
        pre-seeded contract storage (token balances, pool reserves, ...).

        Only legal before any block has been committed.
        """
        if len(self._snapshots) != 1:
            raise StateError("genesis can only be seeded on a fresh StateDB")
        flat: Dict[StateKey, int] = {
            StateKey.balance(address): balance
            for address, balance in balances.items()
        }
        flat.update(storage or {})
        # One batched trie commit: intermediate tree shapes are never
        # hashed or stored.  Zero values stay out of the trie (an empty
        # encoding is a delete) but stay in ``flat``.
        trie = Trie(self._store)
        trie.commit_batch(
            (key.trie_key(), encode_int(value))
            for key, value in flat.items() if value
        )
        # Durable stores seal genesis under a commit marker too, so a
        # reopened chain recovers its seeded height-0 root.
        self._store.commit_root(trie.root, 0)
        self._snapshots[0] = Snapshot(trie, 0, flat=flat)
        return self._snapshots[0]

    def deploy_contract(self, address: Address, code: bytes, name: str = "") -> ContractMeta:
        return self.codes.deploy(address, code, name)

    def account_summary(
        self, address: Address, slots: Optional[Iterable[int]] = None, height: int = -1
    ) -> AccountSummary:
        snap = self.latest if height < 0 else self.snapshot(height)
        storage: Dict[int, int] = {}
        for slot in slots or ():
            storage[slot] = snap.get(StateKey(address, slot))
        return AccountSummary(
            address=address,
            balance=snap.balance_of(address),
            nonce=snap.nonce_of(address),
            is_contract=self.codes.is_contract(address),
            storage=storage,
        )
