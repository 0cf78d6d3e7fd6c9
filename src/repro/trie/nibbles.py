"""Nibble-path utilities for the Merkle Patricia Trie.

Trie keys are traversed four bits (one *nibble*) at a time.  Leaf and
extension nodes store compressed nibble paths using Ethereum's hex-prefix
(HP) encoding, which packs two nibbles per byte and records both the parity
of the path length and whether the node is a leaf.
"""

from __future__ import annotations

from binascii import hexlify, unhexlify
from typing import Tuple

from ..core.errors import TrieError


# A 256-entry byte table taking each lowercase hex digit to its value, so
# expanding a key is two C-level passes (hexlify, translate) instead of a
# Python loop with two shifts and two appends per byte.
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def bytes_to_nibbles(data: bytes) -> Tuple[int, ...]:
    """Expand each byte into its high and low nibble."""
    return tuple(hexlify(data).translate(_HEX_TO_NIBBLE))


def nibbles_to_bytes(nibbles: Tuple[int, ...]) -> bytes:
    """Pack an even-length nibble sequence back into bytes."""
    if len(nibbles) % 2 != 0:
        raise TrieError("cannot pack an odd number of nibbles into bytes")
    return bytes((nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2))


def common_prefix_length(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Length of the longest common prefix of two nibble paths."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit


# Nibble value -> its lowercase hex digit (the inverse table).
_NIBBLE_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")
# The hex-prefix flag digits by (is_leaf, odd length): bit 1 of the flag
# nibble = leaf, bit 0 = odd; an even path gets a zero padding nibble.
_HP_FLAG = {(False, False): b"00", (False, True): b"1",
            (True, False): b"20", (True, True): b"3"}


def hp_encode(nibbles: Tuple[int, ...], is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path.

    The first nibble of the output encodes flags: bit 1 = leaf, bit 0 = odd
    path length.  An even path gets a zero padding nibble after the flag.
    """
    return unhexlify(_HP_FLAG[is_leaf, len(nibbles) % 2 == 1]
                     + bytes(nibbles).translate(_NIBBLE_TO_HEX))


def hp_decode(data: bytes) -> Tuple[Tuple[int, ...], bool]:
    """Decode a hex-prefix path; returns ``(nibbles, is_leaf)``."""
    if not data:
        raise TrieError("empty hex-prefix encoding")
    flag = data[0] >> 4
    if flag > 3:
        raise TrieError(f"invalid hex-prefix flag nibble: {flag}")
    is_leaf = flag >= 2
    if flag % 2 == 1:  # odd length: path starts right after the flag nibble
        return tuple(hexlify(data)[1:].translate(_HEX_TO_NIBBLE)), is_leaf
    if data[0] & 0x0F:
        raise TrieError("non-zero padding nibble in hex-prefix encoding")
    return bytes_to_nibbles(data[1:]), is_leaf
