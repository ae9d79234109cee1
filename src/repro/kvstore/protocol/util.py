"""Small helpers shared by the protocol state machines."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..merkle_index import state_fingerprint
from .env import READ_DIGEST_BYTES


def chunked(items: Sequence, size: int) -> Iterable[Sequence]:
    """Yield ``items`` in consecutive slices of at most ``size`` elements."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


def default_value_size(value: Any) -> int:
    """Approximate wire size of an application value (bytes)."""
    if isinstance(value, bytes):
        return len(value)
    return len(repr(value).encode("utf-8"))


def state_digest(mechanism, state: Any) -> bytes:
    """The digest a read compares replicas by: a fingerprint prefix.

    Equal digests mean the same sibling set (the versions, not their
    order), up to a collision of :data:`READ_DIGEST_BYTES` bytes.
    """
    return state_fingerprint(mechanism, state)[:READ_DIGEST_BYTES]
