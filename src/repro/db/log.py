"""Segmented append-only log: the on-disk substrate of ``repro.db``.

The store's whole write history is a sequence of *records* spread across
numbered *segment* files (``seg-00000000.log``, ``seg-00000001.log``, …) in
one directory.  Each segment starts with an 8-byte magic; each record is::

    kind (1 byte) | payload length (4 bytes LE) | crc32 (4 bytes LE) | payload

with the CRC computed over ``kind || payload``.  Two record kinds exist:

* ``NODE``   — payload is ``digest (32 bytes) || encoded trie node``;
* ``COMMIT`` — payload is ``height (8 bytes LE) || flag (1 byte) ||
  root (32 bytes when flag == 1)``; a flag of 0 encodes the empty trie.

The commit marker is the durability boundary: a node record only *counts*
once a later valid commit marker covers it.  Recovery replays every segment
in order, validating CRCs, and truncates the log back to the byte just
after the last valid commit marker — torn tails and uncommitted node
records simply vanish, which is the recovery invariant
``docs/STORAGE.md`` documents and ``repro.verify.crash`` fuzzes.

The log knows nothing about tries or indexes; it moves bytes, rolls
segments, syncs, truncates, and injects faults (:mod:`repro.db.faults`).
Interpretation lives in :mod:`repro.db.engine`.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import time
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import ReproError
from .faults import NO_FAULTS, FaultPlan, InjectedCrash

MAGIC = b"REPRODB\x01"
HEADER = struct.Struct("<BII")  # kind, payload length, crc32

KIND_NODE = 1
KIND_COMMIT = 2

DEFAULT_SEGMENT_BYTES = 4 << 20


class LogError(ReproError):
    """A structural problem with the log directory itself (not a torn
    tail, which recovery handles silently)."""


def _crc(kind: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes((kind,)))) & 0xFFFFFFFF


class SegmentedLog:
    """Byte-level segment manager with CRC-framed records.

    One writer handle stays open on the *active* (highest-numbered)
    segment; reads map each segment read-only, lazily, and slice the map
    (the active segment is mapped again when a read reaches past what the
    map covers).  Slicing is no system call, so reading a trie node does
    not drop the GIL: with a ``read()`` per node the pipeline's two lanes
    hand the GIL over on every node once the kernel has spread them over
    two cores, and a block then costs half as much again as while they
    share one — the same node, the same host, two speeds.
    ``appended_bytes`` counts every byte this handle has appended — the
    engine diffs it to report per-commit I/O.

    Reads and appends may come from different threads (the pipeline's
    stream lane reads sealed trie nodes while the commit lane appends the
    next batch), so everything touching the shared handles — the segment
    maps, the writer swap on a roll, truncation —
    runs under one internal lock.  The ``fsync`` syscall itself stays
    *outside* the lock: it is the slow part the pipeline exists to overlap,
    and only the single commit lane ever syncs or rolls the writer.
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        faults: Optional[FaultPlan] = None,
        fsync_delay: float = 0.0,
    ) -> None:
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.faults = faults if faults is not None else NO_FAULTS
        # Emulated extra fsync latency (seconds), for benchmarking.  The
        # pure-Python execute/seal stages run ~100x slower than a compiled
        # client while fsync runs at real-hardware speed, which shrinks the
        # persist stage to noise; the delay restores a commodity-disk
        # weight.  Implemented as a sleep *after* the real fsync, so the
        # durability semantics are untouched and (sleep releases the GIL)
        # the overlap a pipeline can claim against it is genuine.
        self.fsync_delay = fsync_delay
        self.appended_bytes = 0
        self._crash_budget = self.faults.crash_after_bytes
        self._lock = threading.RLock()
        os.makedirs(directory, exist_ok=True)
        self._readers: Dict[int, mmap.mmap] = {}
        ids = self._discover()
        if not ids:
            self._create_segment(0)
            ids = [0]
        self._ids: List[int] = ids
        self._open_writer(ids[-1])

    # ------------------------------------------------------------------
    # Segment bookkeeping
    # ------------------------------------------------------------------

    def _discover(self) -> List[int]:
        ids = []
        for name in os.listdir(self.directory):
            if name.startswith("seg-") and name.endswith(".log"):
                try:
                    ids.append(int(name[4:-4]))
                except ValueError:
                    raise LogError(f"unparseable segment name {name!r}")
        return sorted(ids)

    def path(self, segment_id: int) -> str:
        return os.path.join(self.directory, f"seg-{segment_id:08d}.log")

    def _create_segment(self, segment_id: int) -> None:
        with open(self.path(segment_id), "wb") as handle:
            handle.write(MAGIC)
            handle.flush()
            os.fsync(handle.fileno())

    def _open_writer(self, segment_id: int) -> None:
        self._active_id = segment_id
        self._writer = open(self.path(segment_id), "ab")
        self._active_size = os.path.getsize(self.path(segment_id))

    @property
    def active_id(self) -> int:
        return self._active_id

    def segment_ids(self) -> List[int]:
        return list(self._ids)

    def total_bytes(self) -> int:
        with self._lock:
            self._writer.flush()
            return sum(os.path.getsize(self.path(i)) for i in self._ids)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        """One fault-aware write.  A crash budget that runs out mid-buffer
        persists only the prefix that fits — a torn record on disk."""
        if self._crash_budget is not None:
            if len(data) > self._crash_budget:
                kept = data[: self._crash_budget]
                if kept:
                    self._writer.write(kept)
                self._writer.flush()
                self._crash_budget = 0
                raise InjectedCrash(
                    f"injected crash after {self.appended_bytes + len(kept)} bytes"
                )
            self._crash_budget -= len(data)
        self._writer.write(data)
        self.appended_bytes += len(data)
        self._active_size += len(data)

    def append(self, kind: int, payload: bytes) -> Tuple[int, int]:
        """Append one record; returns ``(segment_id, payload_offset)``."""
        with self._lock:
            offset = self._active_size
            header = HEADER.pack(kind, len(payload), _crc(kind, payload))
            self._write(header + payload)
            return self._active_id, offset + HEADER.size

    def sync(self) -> float:
        """Flush and fsync the active segment; returns the fsync seconds
        (0.0 when the fault plan skips fsync)."""
        with self._lock:
            self._writer.flush()
            if self.faults.skip_fsync:
                return 0.0
            fd = self._writer.fileno()
        # fsync outside the lock: concurrent reads of already-flushed bytes
        # need not wait out the disk, and only this (commit-lane) thread
        # ever rolls or closes the writer, so fd stays valid.
        start = time.perf_counter()
        os.fsync(fd)
        if self.fsync_delay:
            time.sleep(self.fsync_delay)
        return time.perf_counter() - start

    def maybe_roll(self) -> bool:
        """Start a fresh segment once the active one exceeds its budget.
        Called between commits so segments end on commit boundaries."""
        if self._active_size < self.segment_bytes:
            return False
        self.roll()
        return True

    def roll(self) -> None:
        with self._lock:
            self._writer.flush()
            self._writer.close()
            next_id = self._active_id + 1
            self._create_segment(next_id)
            self._ids.append(next_id)
            self._open_writer(next_id)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read(self, segment_id: int, offset: int, length: int) -> bytes:
        end = offset + length
        with self._lock:
            reader = self._readers.get(segment_id)
            if reader is None or end > len(reader):
                reader = self._map(segment_id)
            data = reader[offset:end]
        if len(data) != length:
            raise LogError(
                f"short read in segment {segment_id} at {offset} "
                f"(wanted {length}, got {len(data)})"
            )
        return data

    def _map(self, segment_id: int) -> mmap.mmap:
        """Map (again) all of a segment as it is on disk now."""
        stale = self._readers.pop(segment_id, None)
        if stale is not None:
            stale.close()
        if segment_id == self._active_id:
            self._writer.flush()
        with open(self.path(segment_id), "rb") as handle:
            reader = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._readers[segment_id] = reader
        return reader

    def scan(self) -> Iterator[Tuple[int, bytes, int, int, int]]:
        """Replay every structurally valid record in order.

        Yields ``(kind, payload, segment_id, payload_offset, end_offset)``.
        Stops cleanly at the first corruption — a short header, an
        impossible kind, a short payload, or a CRC mismatch — and ignores
        every later segment (a torn write never has valid data after it).
        """
        self._writer.flush()
        for segment_id in self._ids:
            size = os.path.getsize(self.path(segment_id))
            with open(self.path(segment_id), "rb") as handle:
                if handle.read(len(MAGIC)) != MAGIC:
                    return
                offset = len(MAGIC)
                while offset + HEADER.size <= size:
                    handle.seek(offset)
                    kind, length, crc = HEADER.unpack(handle.read(HEADER.size))
                    if kind not in (KIND_NODE, KIND_COMMIT):
                        return
                    if offset + HEADER.size + length > size:
                        return  # torn payload
                    payload = handle.read(length)
                    if _crc(kind, payload) != crc:
                        return
                    end = offset + HEADER.size + length
                    yield kind, payload, segment_id, offset + HEADER.size, end
                    offset = end
                if offset != size:
                    return  # torn header at the tail

    # ------------------------------------------------------------------
    # Truncation & deletion
    # ------------------------------------------------------------------

    def truncate_to(self, segment_id: int, offset: int) -> int:
        """Drop everything after ``offset`` in ``segment_id`` (deleting all
        later segments); returns the number of bytes removed."""
        with self._lock:
            return self._truncate_to(segment_id, offset)

    def _truncate_to(self, segment_id: int, offset: int) -> int:
        self._writer.flush()
        self._writer.close()
        self._close_readers()
        removed = 0
        for sid in [i for i in self._ids if i > segment_id]:
            removed += os.path.getsize(self.path(sid))
            os.remove(self.path(sid))
            self._ids.remove(sid)
        size = os.path.getsize(self.path(segment_id))
        if size > offset:
            removed += size - offset
            with open(self.path(segment_id), "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
        self._open_writer(segment_id)
        return removed

    def delete_segments_before(self, segment_id: int) -> int:
        """Unlink every segment older than ``segment_id`` (compaction's
        final step); returns the bytes reclaimed."""
        with self._lock:
            self._close_readers()
            reclaimed = 0
            for sid in [i for i in self._ids if i < segment_id]:
                reclaimed += os.path.getsize(self.path(sid))
                os.remove(self.path(sid))
                self._ids.remove(sid)
            return reclaimed

    def _close_readers(self) -> None:
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    def close(self) -> None:
        with self._lock:
            self._writer.flush()
            if self.faults.torn_tail_bytes:
                size = os.path.getsize(self.path(self._active_id))
                keep = max(size - self.faults.torn_tail_bytes, len(MAGIC))
                self._writer.close()
                with open(self.path(self._active_id), "r+b") as handle:
                    handle.truncate(keep)
            else:
                self._writer.close()
            self._close_readers()


def encode_node_payload(digest: bytes, encoded: bytes) -> bytes:
    return digest + encoded


def decode_node_payload(payload: bytes) -> Tuple[bytes, bytes]:
    return payload[:32], payload[32:]


def encode_commit_payload(height: int, root: Optional[bytes]) -> bytes:
    if root is None:
        return struct.pack("<Q", height) + b"\x00"
    return struct.pack("<Q", height) + b"\x01" + root


def decode_commit_payload(payload: bytes) -> Tuple[int, Optional[bytes]]:
    (height,) = struct.unpack_from("<Q", payload)
    if payload[8] == 0:
        return height, None
    return height, payload[9:41]
