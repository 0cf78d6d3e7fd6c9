"""Speculative read views over unsealed state.

The pipeline lets block *N+1* start executing before block *N*'s trie
commit has sealed, so the executor cannot read from a :class:`Snapshot`
that does not exist yet.  A :class:`PendingView` is the bridge: the latest
*sealed* snapshot plus the final write batches of every in-flight block
between it and the speculative head, flattened into one overlay dict.

Values are exact — an in-flight batch is the block's *final* write set
(execution is already finished; only sealing/fsync are pending) — so a
read through the view returns byte-for-byte what the eventual snapshot
will contain.  That is the pipeline's ordering invariant: the commit of
block *N* can land arbitrarily late, but the view block *N+1* executes
against already observes exactly *N*'s writes (``tests/pipeline`` asserts
this as a property).

The view quacks like a :class:`~repro.state.statedb.Snapshot` everywhere
executors and the C-SAG builder look: ``get`` / ``get_uncached``,
``balance_of`` / ``nonce_of``, ``height``, ``root_hash`` and the
``flat_hits``/``flat_misses`` counters (the overlay's own; ``flat_counts()``
adds the base snapshot's).  ``root_hash`` is the *base*
snapshot's root (the newest sealed commitment) — the overlay has no root
until its blocks seal, and C-SAG cache keys only need a stable identity.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from ..core.types import Address, StateKey

_MISS = object()


class PendingView:
    """Read-only composite of a sealed snapshot and in-flight writes."""

    def __init__(
        self,
        base,
        batches: Iterable[Tuple[int, Mapping[StateKey, int]]] = (),
    ) -> None:
        """``batches`` are ``(height, final_writes)`` pairs in ascending
        height order.  Batches at or below the base height are tolerated
        (they re-assert values the base already contains — the benign race
        when a seal lands between capturing the pending set and the base).
        """
        self._base = base
        self._overlay: Dict[StateKey, int] = {}
        height = base.height
        for batch_height, writes in batches:
            self._overlay.update(writes)
            height = max(height, batch_height)
        self.height = height
        self.flat_hits = 0
        self.flat_misses = 0

    @property
    def base(self):
        return self._base

    @property
    def pending_writes(self) -> int:
        return len(self._overlay)

    @property
    def root_hash(self) -> bytes:
        return self._base.root_hash

    def get(self, key: StateKey) -> int:
        value = self._overlay.get(key, _MISS)
        if value is not _MISS:
            self.flat_hits += 1
            return value
        return self._base.get(key)

    def get_uncached(self, key: StateKey) -> int:
        value = self._overlay.get(key, _MISS)
        if value is not _MISS:
            return value
        return self._base.get_uncached(key)

    def flat_counts(self) -> Tuple[int, int]:
        """Cumulative ``(hits, misses)`` of reads through this view: the
        overlay's hits plus the traffic that fell through to the base."""
        return (self.flat_hits + self._base.flat_hits,
                self.flat_misses + self._base.flat_misses)

    def balance_of(self, address: Address) -> int:
        return self.get(StateKey.balance(address))

    def nonce_of(self, address: Address) -> int:
        return self.get(StateKey.nonce(address))

    def __repr__(self) -> str:
        return (
            f"PendingView(height={self.height}, "
            f"base={self._base.height}, "
            f"pending_writes={len(self._overlay)})"
        )
