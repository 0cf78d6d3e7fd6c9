"""Transaction pool with attached analysis results.

Per the paper's workflow (Fig. 2), a validator analyses each transaction as
it arrives — building/refining its SAG against the *current* latest
snapshot — and parks both in the pool.  The packer later drafts
transactions into blocks; the executor fetches the cached C-SAGs, rebuilding
only the ones that are missing (transactions first seen inside a foreign
block) or stale beyond use.

Beyond the paper's sketch, the pool is a real mempool (the serving shape
:mod:`repro.pipeline` drives):

* **admission control** — duplicate and stale/duplicate-nonce rejection
  (with replace-by-fee on a nonce collision), a minimum admission fee, a
  per-sender entry cap, and an optional bound on per-sender nonce gaps;
* **fee-priority eviction** — at capacity the *lowest-fee unanalysed*
  entry is evicted first (analysis work is the expensive part the pool
  exists to cache); an incoming transaction that bids strictly less than
  every would-be victim is rejected instead of displacing paid work, and
  every eviction is counted in :class:`PoolStats` and emitted on the
  attached obs bus — never silent;
* **watermarks** — ``above_high`` / ``below_low`` occupancy signals the
  pipeline's ingest stage uses for backpressure hysteresis (throttle the
  stream, never drop admitted work).

All of it is opt-in: a default-constructed pool behaves exactly like the
original FIFO pool for zero-fee transactions.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.csag import CSAG, CSAGBuilder
from ..core.types import Address
from ..state.statedb import Snapshot
from .transaction import Transaction


@dataclass
class PooledTransaction:
    tx: Transaction
    csag: Optional[CSAG] = None
    arrival: int = 0  # admission sequence number (FIFO tie-breaker)

    @property
    def analysed(self) -> bool:
        return self.csag is not None

    @property
    def fee(self) -> int:
        return self.tx.fee


# Rejection / admission reasons (AdmissionResult.reason values).
ACCEPTED = "accepted"
REPLACED = "replaced"          # accepted by displacing a same-nonce entry
DUPLICATE = "duplicate"        # same tx hash already pooled
DUPLICATE_NONCE = "duplicate-nonce"  # same (sender, nonce), not a better fee
STALE_NONCE = "stale-nonce"    # nonce below the sender's included floor
NONCE_GAP = "nonce-gap"        # nonce too far ahead of the sender's floor
UNDERPRICED = "underpriced"    # fee below the pool's admission minimum
SENDER_CAP = "sender-cap"      # sender already holds its entry quota
POOL_FULL = "pool-full"        # full, and the newcomer outbids no victim


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one :meth:`TransactionPool.add`; truthy iff admitted."""

    accepted: bool
    reason: str = ACCEPTED
    evicted: Optional[bytes] = None  # hash displaced to make room, if any

    def __bool__(self) -> bool:
        return self.accepted


@dataclass
class PoolStats:
    """Lifetime mempool accounting (admissions, rejections, evictions)."""

    received: int = 0
    admitted: int = 0
    replacements: int = 0          # replace-by-fee admissions
    evictions: int = 0             # capacity evictions (never silent)
    evicted_analysed: int = 0      # evictions that threw away a built C-SAG
    stale_dropped: int = 0         # entries invalidated by mark_included
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def as_dict(self) -> dict:
        return {
            "received": self.received,
            "admitted": self.admitted,
            "replacements": self.replacements,
            "evictions": self.evictions,
            "evicted_analysed": self.evicted_analysed,
            "stale_dropped": self.stale_dropped,
            "rejected": dict(self.rejected),
        }


class TransactionPool:
    """Mempool keyed by transaction hash (arrival order preserved).

    ``nonce_tracking`` turns on per-sender nonce accounting: stale and
    duplicate nonces are rejected at admission (replace-by-fee wins a
    collision), :meth:`mark_included` advances each sender's floor when a
    block is packed, and :meth:`take_by_fee` never emits nonce ``n+1``
    before ``n``.  ``base_nonce`` resolves a sender's starting floor
    (e.g. from the latest state snapshot); it defaults to zero.
    """

    def __init__(
        self,
        max_size: int = 100_000,
        *,
        min_fee: int = 0,
        per_sender_cap: int = 0,
        nonce_tracking: bool = False,
        max_nonce_gap: Optional[int] = None,
        high_watermark: float = 0.9,
        low_watermark: float = 0.75,
        base_nonce: Optional[Callable[[Address], int]] = None,
        obs=None,
    ) -> None:
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError(
                f"watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        self._pool: "OrderedDict[bytes, PooledTransaction]" = OrderedDict()
        self.max_size = max_size
        self.min_fee = min_fee
        self.per_sender_cap = per_sender_cap
        self.nonce_tracking = nonce_tracking
        self.max_nonce_gap = max_nonce_gap
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._base_nonce = base_nonce
        self.obs = obs
        self.stats = PoolStats()
        self._arrivals = 0
        self._by_sender: Dict[Address, Dict[int, bytes]] = {}
        self._floor: Dict[Address, int] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def floor_of(self, sender: Address) -> int:
        """The sender's next expected nonce (lazily seeded)."""
        floor = self._floor.get(sender)
        if floor is None:
            floor = self._base_nonce(sender) if self._base_nonce else 0
            self._floor[sender] = floor
        return floor

    def sender_count(self, sender: Address) -> int:
        return len(self._by_sender.get(sender, ()))

    def add(self, tx: Transaction, csag: Optional[CSAG] = None) -> AdmissionResult:
        """Admit a transaction; returns a truthy result iff it was pooled."""
        self.stats.received += 1
        tx_hash = tx.tx_hash
        if tx_hash in self._pool:
            return self._reject(tx, DUPLICATE)
        displaced: Optional[bytes] = None
        if self.nonce_tracking:
            floor = self.floor_of(tx.sender)
            if tx.nonce < floor:
                return self._reject(tx, STALE_NONCE)
            if (
                self.max_nonce_gap is not None
                and tx.nonce > floor + self.max_nonce_gap
            ):
                return self._reject(tx, NONCE_GAP)
            holder = self._by_sender.get(tx.sender, {}).get(tx.nonce)
            if holder is not None:
                incumbent = self._pool[holder]
                if tx.fee <= incumbent.fee:
                    return self._reject(tx, DUPLICATE_NONCE)
                self._drop(holder, REPLACED)
                self.stats.replacements += 1
                displaced = holder
        if tx.fee < self.min_fee:
            return self._reject(tx, UNDERPRICED)
        if (
            self.per_sender_cap
            and displaced is None
            and self.sender_count(tx.sender) >= self.per_sender_cap
        ):
            return self._reject(tx, SENDER_CAP)
        if len(self._pool) >= self.max_size:
            victim = self._eviction_victim()
            if victim is not None and tx.fee < victim.fee:
                # The newcomer outbids nobody: refusing it loses less work
                # than displacing a better-paying entry.
                return self._reject(tx, POOL_FULL)
            if victim is not None:
                self._evict(victim)
                displaced = displaced or victim.tx.tx_hash
        self._insert(PooledTransaction(tx, csag, self._next_arrival()))
        self.stats.admitted += 1
        reason = REPLACED if displaced is not None and self.nonce_tracking else ACCEPTED
        return AdmissionResult(True, reason, evicted=displaced)

    def reinsert(self, pooled: PooledTransaction) -> None:
        """Return a previously admitted entry (e.g. packer overflow) to the
        pool, bypassing admission control and stats."""
        if pooled.tx.tx_hash in self._pool:
            return
        self._insert(pooled)

    def _reject(self, tx: Transaction, reason: str) -> AdmissionResult:
        self.stats.reject(reason)
        if self.obs is not None:
            self.obs.mempool_rejected(0.0, reason=reason, fee=tx.fee)
        return AdmissionResult(False, reason)

    def _sender_key(self, tx: Transaction):
        # With nonce tracking each sender holds one slot per nonce (what
        # replace-by-fee displaces); without it every entry is its own slot.
        return tx.nonce if self.nonce_tracking else tx.tx_hash

    def _insert(self, pooled: PooledTransaction) -> None:
        tx = pooled.tx
        self._pool[tx.tx_hash] = pooled
        self._by_sender.setdefault(tx.sender, {})[self._sender_key(tx)] = tx.tx_hash

    def _next_arrival(self) -> int:
        self._arrivals += 1
        return self._arrivals

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _eviction_victim(self) -> Optional[PooledTransaction]:
        """Pick the entry a full pool sacrifices: the lowest-fee unanalysed
        entry (oldest on ties); only if everything is analysed, the
        lowest-fee analysed one."""
        best: Optional[PooledTransaction] = None
        fallback: Optional[PooledTransaction] = None
        for pooled in self._pool.values():
            if not pooled.analysed:
                if best is None or (pooled.fee, pooled.arrival) < (best.fee, best.arrival):
                    best = pooled
            elif best is None:
                if fallback is None or (pooled.fee, pooled.arrival) < (fallback.fee, fallback.arrival):
                    fallback = pooled
        return best if best is not None else fallback

    def _evict(self, victim: PooledTransaction) -> None:
        self.stats.evictions += 1
        if victim.analysed:
            self.stats.evicted_analysed += 1
        self._drop(victim.tx.tx_hash, "capacity")
        if self.obs is not None:
            self.obs.mempool_evicted(
                0.0, fee=victim.fee, analysed=victim.analysed,
                reason="capacity", pool_size=len(self._pool),
            )

    def _drop(self, tx_hash: bytes, reason: str) -> Optional[PooledTransaction]:
        pooled = self._pool.pop(tx_hash, None)
        if pooled is None:
            return None
        sender_map = self._by_sender.get(pooled.tx.sender)
        key = self._sender_key(pooled.tx)
        if sender_map is not None and sender_map.get(key) == tx_hash:
            del sender_map[key]
            if not sender_map:
                del self._by_sender[pooled.tx.sender]
        return pooled

    # ------------------------------------------------------------------
    # Inclusion accounting (miner side)
    # ------------------------------------------------------------------

    def mark_included(self, txs: List[Transaction]) -> int:
        """Record that ``txs`` made it into a sealed block: advance each
        sender's nonce floor and drop pooled entries the floor obsoletes.
        Returns how many stale entries were dropped."""
        if not self.nonce_tracking:
            return 0
        dropped = 0
        for tx in txs:
            floor = max(self.floor_of(tx.sender), tx.nonce + 1)
            self._floor[tx.sender] = floor
            stale = [
                n for n in self._by_sender.get(tx.sender, {})
                if n < floor
            ]
            for nonce in stale:
                self._drop(self._by_sender[tx.sender][nonce], "stale")
                dropped += 1
        self.stats.stale_dropped += dropped
        return dropped

    # ------------------------------------------------------------------
    # Analysis & retrieval
    # ------------------------------------------------------------------

    def analyse(self, builder: CSAGBuilder, snapshot: Snapshot,
                stale_keys=None) -> int:
        """Build C-SAGs for every unanalysed transaction; returns how many.

        ``stale_keys`` (a set of :class:`StateKey`) additionally forces
        re-analysis of already-analysed entries whose predicted reads touch
        any of those keys — the pipeline passes the lane planner's learned
        hot keys here, so predictions against contention-prone state are
        refreshed against the newest sealed snapshot instead of riding a
        stale cache into a mispredicted block.
        """
        built = 0
        for pooled in self._pool.values():
            if pooled.csag is None:
                pooled.csag = builder.build(pooled.tx, snapshot)
                built += 1
            elif stale_keys and not stale_keys.isdisjoint(
                    pooled.csag.read_keys | pooled.csag.static_read_keys):
                pooled.csag = builder.build(pooled.tx, snapshot)
                built += 1
        return built

    def get(self, tx_hash: bytes) -> Optional[PooledTransaction]:
        return self._pool.get(tx_hash)

    def take(self, count: int) -> List[PooledTransaction]:
        """Pop up to ``count`` transactions in arrival order."""
        taken: List[PooledTransaction] = []
        while self._pool and len(taken) < count:
            tx_hash = next(iter(self._pool))
            taken.append(self._drop(tx_hash, "taken"))
        return taken

    def take_by_fee(self, count: int) -> List[PooledTransaction]:
        """Pop up to ``count`` transactions, highest fee first (ties by
        arrival).  With nonce tracking on, a sender's transactions are only
        eligible in nonce order starting at its floor — a gapped nonce
        parks until the gap fills.

        Only each sender's head (its next eligible nonce) competes, from a
        heap keyed ``(-fee, arrival)``; taking a head pushes that sender's
        next nonce.  Arrivals are unique, so the key is a total order and
        the pick sequence is the same as rescanning every head per take."""
        if not self.nonce_tracking:
            taken = heapq.nsmallest(
                count, self._pool.values(), key=lambda p: (-p.fee, p.arrival)
            )
            for pooled in taken:
                self._drop(pooled.tx.tx_hash, "taken")
            return taken
        pool = self._pool
        by_sender = self._by_sender
        heap = []
        for sender, slots in by_sender.items():
            tx_hash = slots.get(self.floor_of(sender))
            if tx_hash is not None:
                pooled = pool[tx_hash]
                heap.append((-pooled.fee, pooled.arrival, tx_hash))
        heapq.heapify(heap)
        taken: List[PooledTransaction] = []
        while heap and len(taken) < count:
            tx_hash = heapq.heappop(heap)[2]
            pooled = self._drop(tx_hash, "taken")
            taken.append(pooled)
            tx = pooled.tx
            next_hash = by_sender.get(tx.sender, {}).get(tx.nonce + 1)
            if next_hash is not None:
                nxt = pool[next_hash]
                heapq.heappush(heap, (-nxt.fee, nxt.arrival, next_hash))
        return taken

    def remove(self, tx_hash: bytes) -> bool:
        return self._drop(tx_hash, "removed") is not None

    def lookup_block(
        self, txs: List[Transaction]
    ) -> Tuple[List[Optional[CSAG]], int]:
        """Fetch cached C-SAGs for a foreign block's transactions.

        Returns (csags-or-None aligned with ``txs``, number missing) and
        removes the found transactions from the pool.
        """
        csags: List[Optional[CSAG]] = []
        missing = 0
        for tx in txs:
            pooled = self._drop(tx.tx_hash, "included")
            if pooled is not None and pooled.csag is not None:
                csags.append(pooled.csag)
            else:
                csags.append(None)
                missing += 1
        return csags, missing

    # ------------------------------------------------------------------
    # Occupancy / backpressure signals
    # ------------------------------------------------------------------

    @property
    def saturation(self) -> float:
        return len(self._pool) / self.max_size if self.max_size else 0.0

    @property
    def above_high(self) -> bool:
        """Occupancy crossed the high watermark: ingest should throttle."""
        return len(self._pool) >= self.high_watermark * self.max_size

    @property
    def below_low(self) -> bool:
        """Occupancy fell under the low watermark: ingest may resume."""
        return len(self._pool) <= self.low_watermark * self.max_size

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self._pool


class Packer:
    """Drafts blocks from the pool (count- and gas-limited).

    ``order`` selects the draft policy: ``"arrival"`` (the original FIFO
    shape) or ``"fee"`` (highest bid first, per-sender nonce order
    preserved when the pool tracks nonces — the miner-packs side of the
    miner-packs/validator-replays split, since the packed order travels in
    the block for importers to replay).
    """

    def __init__(
        self,
        max_txs: int = 1_000,
        gas_limit: Optional[int] = None,
        order: str = "arrival",
    ) -> None:
        if order not in ("arrival", "fee"):
            raise ValueError(f"unknown pack order {order!r}")
        self.max_txs = max_txs
        self.gas_limit = gas_limit
        self.order = order

    def pack(self, pool: TransactionPool) -> List[PooledTransaction]:
        """Select transactions for the next block, honouring both limits."""
        if self.order == "fee":
            selected = pool.take_by_fee(self.max_txs)
        else:
            selected = pool.take(self.max_txs)
        if self.gas_limit is None:
            return selected
        total = 0
        packed: List[PooledTransaction] = []
        overflow: List[PooledTransaction] = []
        for pooled in selected:
            estimate = (
                pooled.csag.predicted_gas
                if pooled.csag is not None
                else pooled.tx.gas_limit
            )
            if total + estimate > self.gas_limit and packed:
                overflow.append(pooled)
                continue
            total += estimate
            packed.append(pooled)
        # Unpacked transactions return to the pool without re-running
        # admission (they were already admitted once).
        for pooled in overflow:
            pool.reinsert(pooled)
        return packed
