"""Transactions.

Two kinds, as in the paper: *contract calls* (the target has code; the data
field carries an ABI-encoded call) and *Ether transactions* (plain value
transfers that never start an EVM instance).  The kind is a property of the
target account, not of the transaction itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..core.encoding import encode_int, rlp_encode
from ..core.errors import InvalidTransaction
from ..core.hashing import keccak
from ..core.types import Address

DEFAULT_GAS_LIMIT = 2_000_000


@dataclass(frozen=True)
class Transaction:
    """One signed transaction (signatures themselves are out of scope; the
    sender field is taken as authenticated, as the paper does)."""

    sender: Address
    to: Address
    value: int = 0
    data: bytes = b""
    gas_limit: int = DEFAULT_GAS_LIMIT
    nonce: int = 0
    fee: int = 0  # priority fee the sender bids for inclusion
    label: str = field(default="", compare=False)  # debugging/metrics tag

    def __post_init__(self) -> None:
        if self.value < 0:
            raise InvalidTransaction("negative value")
        if self.gas_limit <= 0:
            raise InvalidTransaction("gas limit must be positive")
        if self.fee < 0:
            raise InvalidTransaction("negative fee")
        if self.nonce < 0:
            raise InvalidTransaction("negative nonce")

    @cached_property
    def tx_hash(self) -> bytes:
        # Once per instance: the fields are frozen, and ``cached_property``
        # writes ``__dict__`` directly, past the frozen ``__setattr__``.
        return keccak(
            rlp_encode([
                self.sender.to_bytes(),
                self.to.to_bytes(),
                encode_int(self.value),
                self.data,
                encode_int(self.gas_limit),
                encode_int(self.nonce),
                encode_int(self.fee),
            ])
        )

    @property
    def is_transfer(self) -> bool:
        """True when the transaction carries no calldata (note that the
        authoritative test is whether the *target* has code)."""
        return not self.data

    def short_id(self) -> str:
        return self.tx_hash.hex()[:10]

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"Tx({self.short_id()}{tag}, {self.sender} -> {self.to})"
