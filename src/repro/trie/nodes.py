"""Merkle Patricia Trie node types and their canonical encodings.

Three node shapes, as in Ethereum:

* :class:`LeafNode` — a compressed terminal path and a value.
* :class:`ExtensionNode` — a compressed shared path pointing at one child.
* :class:`BranchNode` — sixteen child references (one per nibble) plus an
  optional value for keys ending exactly at the branch.

Nodes are immutable by convention — nothing assigns to a node's fields
after construction; every mutation of the trie builds new nodes, which is
what makes snapshots free (structural sharing).  They are slotted, not
frozen dataclasses, because a frozen constructor costs twice as much and
every decoded or sealed node pays it.  A node's identity is the hash of its
RLP encoding; children are referenced by that hash.

Every node is one flat RLP list of byte strings, so the codec here writes
and parses that one shape directly — prefix arithmetic on encode, slicing
on decode — instead of the recursive generic :mod:`repro.core.encoding`
(which stays for transactions and receipts).  The output is byte-identical
to the generic encoder's; any input the flat parser does not accept goes
through the generic decoder, so malformed bytes raise exactly what they
always did.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..core.encoding import rlp_decode
from ..core.errors import TrieError
from ..core.hashing import keccak
from .nibbles import hp_decode, hp_encode

BRANCH_WIDTH = 16

TrieNode = Union["LeafNode", "ExtensionNode", "BranchNode"]

_EMPTY = b"\x80"            # RLP of b"": an empty branch slot or value
_DIGEST = b"\xa0"           # RLP string prefix of a 32-byte digest
# The sixteen slots of a branch, each empty or a digest: one C-level match
# whose groups are the children (``None`` for an empty slot).
_BRANCH_SLOTS = re.compile(rb"(?s)" + rb"(?:\x80|\xa0(.{32}))" * BRANCH_WIDTH)


@dataclass(eq=True, unsafe_hash=True)
class LeafNode:
    """Terminal node: remaining key path and stored value."""

    __slots__ = ("path", "value")
    path: Tuple[int, ...]
    value: bytes

    def encode(self) -> bytes:
        return _list(_string(hp_encode(self.path, True)) + _string(self.value))


@dataclass(eq=True, unsafe_hash=True)
class ExtensionNode:
    """Path-compression node: shared prefix and a single child hash."""

    __slots__ = ("path", "child")
    path: Tuple[int, ...]
    child: bytes

    def __post_init__(self) -> None:
        if not self.path:
            raise TrieError("extension node requires a non-empty path")

    def encode(self) -> bytes:
        return _list(_string(hp_encode(self.path, False)) + _string(self.child))


@dataclass(eq=True, unsafe_hash=True)
class BranchNode:
    """Sixteen-way fanout node with an optional terminal value."""

    __slots__ = ("children", "value")
    children: Tuple[Optional[bytes], ...]
    value: Optional[bytes]

    def __init__(
        self,
        children: Tuple[Optional[bytes], ...] = (None,) * BRANCH_WIDTH,
        value: Optional[bytes] = None,
    ) -> None:
        if len(children) != BRANCH_WIDTH:
            raise TrieError(f"branch node needs {BRANCH_WIDTH} children")
        self.children = children
        self.value = value

    def encode(self) -> bytes:
        return _list(b"".join([
            _EMPTY if child is None
            else _DIGEST + child if len(child) == 32
            else _string(child)
            for child in self.children
        ]) + _string(self.value or b""))

    def with_child(self, nibble: int, child: Optional[bytes]) -> "BranchNode":
        children = list(self.children)
        children[nibble] = child
        return BranchNode(tuple(children), self.value)

    def with_value(self, value: Optional[bytes]) -> "BranchNode":
        return BranchNode(self.children, value)

    def live_children(self) -> List[Tuple[int, bytes]]:
        """Pairs of (nibble, child hash) for the non-empty slots."""
        return [(i, c) for i, c in enumerate(self.children) if c is not None]


def node_hash(node: TrieNode) -> bytes:
    """Canonical 32-byte identity of a node."""
    return keccak(node.encode())


def _string(data: bytes) -> bytes:
    """RLP of one byte string."""
    length = len(data)
    if length == 1 and data[0] < 0x80:
        return data
    if length <= 55:
        return bytes((0x80 + length,)) + data
    size = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((0xB7 + len(size),)) + size + data


def _list(payload: bytes) -> bytes:
    """RLP list header + ``payload`` (the items' concatenated encodings)."""
    length = len(payload)
    if length <= 55:
        return bytes((0xC0 + length,)) + payload
    size = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((0xF7 + len(size),)) + size + payload


def _span(data: bytes, cursor: int):
    """``(start, stop)`` of the byte string RLP-encodes at ``cursor`` in
    single-byte or short form; ``None`` for any other prefix."""
    prefix = data[cursor]
    if prefix < 0x80:
        return cursor, cursor + 1
    if prefix <= 0xB7:
        return cursor + 1, cursor + 1 + prefix - 0x80
    return None


def decode_node(encoded: bytes) -> TrieNode:
    """Inverse of ``node.encode()``."""
    size = len(encoded)
    prefix = encoded[0] if size else 0
    if prefix >= 0xF8:
        cursor = prefix - 0xF6
        end = cursor + int.from_bytes(encoded[1:cursor], "big")
    elif prefix >= 0xC0:
        cursor = 1
        end = prefix - 0xBF
    else:
        return _decode_generic(encoded)
    if end != size or cursor >= end:
        return _decode_generic(encoded)
    head = encoded[cursor]
    if head == 0x80 or head == 0xA0:
        # An empty slot or a digest first: most likely a branch.  (A
        # 32-byte hex-prefix path also starts with 0xa0.)
        slots = _BRANCH_SLOTS.match(encoded, cursor)
        if slots is not None:
            tail = slots.end()
            if tail == end - 1 and encoded[tail] == 0x80:
                return BranchNode(slots.groups(), None)
            value = _span(encoded, tail) if tail < end else None
            if value is not None and value[1] == end:
                return BranchNode(slots.groups(),
                                  encoded[value[0]:end] or None)
    # A leaf or an extension: the hex-prefix path, then the payload.
    path = _span(encoded, cursor)
    if path is not None and path[1] < end:
        payload = _span(encoded, path[1])
        if payload is not None and payload[1] == end:
            nibbles, is_leaf = hp_decode(encoded[path[0]:path[1]])
            if is_leaf:
                return LeafNode(nibbles, encoded[payload[0]:end])
            return ExtensionNode(nibbles, encoded[payload[0]:end])
    return _decode_generic(encoded)


def _decode_generic(encoded: bytes) -> TrieNode:
    """Any shape the flat parser declined: the generic RLP decoder parses
    it or raises."""
    items = rlp_decode(encoded)
    if not isinstance(items, list):
        raise TrieError("trie node must decode to an RLP list")
    if len(items) == 2:
        path_bytes, payload = items
        if not isinstance(path_bytes, bytes) or not isinstance(payload, bytes):
            raise TrieError("malformed two-item trie node")
        path, is_leaf = hp_decode(path_bytes)
        if is_leaf:
            return LeafNode(path, payload)
        return ExtensionNode(path, payload)
    if len(items) == BRANCH_WIDTH + 1:
        children = tuple(
            item if isinstance(item, bytes) and item else None
            for item in items[:BRANCH_WIDTH]
        )
        raw_value = items[BRANCH_WIDTH]
        value = raw_value if isinstance(raw_value, bytes) and raw_value else None
        return BranchNode(children, value)
    raise TrieError(f"unexpected trie node arity: {len(items)}")
