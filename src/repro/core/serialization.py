"""Serialisation and size accounting for clocks.

The quantitative half of the paper's evaluation ("a significant reduction in
the size of metadata, and better latency when serving requests") is about how
many bytes of causality metadata travel with every request and sit next to
every stored value.  This module provides:

* a compact, dependency-free binary encoding for every clock type (length-
  prefixed UTF-8 actor ids + varint counters), used both to measure realistic
  byte sizes and to exercise round-trip correctness in the tests;
* a JSON-compatible encoding for human inspection and for the examples;
* :func:`encoded_size` / :func:`entry_count`, the two measurements the
  metadata-size checks (E2/E4, in ``tests/integration/test_workload_matrix.py``)
  report.

The binary encoding itself lives in :mod:`repro.core.codec`, the canonical-
bytes layer: clocks are immutable, so the encoding is computed once per
instance and memoized, and :func:`encode` / :func:`encoded_size` here are
cache reads after the first call.  The primitives and the clock-body parsers
are :mod:`~repro.core.codec`'s too — one set, shared with the wire codec.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, Union

from . import codec
from .causal_history import CausalHistory
from .codec import (
    _decode_actor,
    _decode_dvv_body,
    _decode_history_body,
    _decode_str,
    _decode_varint,
    _decode_vv_body,
)
from .dot import Dot
from .dvv import DottedVersionVector
from .dvvset import DVVSet
from .exceptions import ClockError, SerializationError
from .version_vector import VersionVector

Clock = Union[CausalHistory, VersionVector, DottedVersionVector, DVVSet]


# ---------------------------------------------------------------------- #
# Binary encoding
# ---------------------------------------------------------------------- #
def encode(clock: Clock) -> bytes:
    """Encode any clock type into a compact, self-describing byte string.

    Delegates to the canonical-bytes layer: the first call on an instance
    walks the structure, every later call returns the memoized bytes.
    """
    return codec.canonical_bytes(clock)


def _decode_dvvset_body(data: bytes, offset: int) -> Tuple[DVVSet, int]:
    entry_count_, offset = _decode_varint(data, offset)
    entries = []
    for _ in range(entry_count_):
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        value_count, offset = _decode_varint(data, offset)
        values = []
        for _ in range(value_count):
            value, offset = _decode_str(data, offset)
            values.append(value)
        entries.append((actor, counter, tuple(values)))
    anon_count, offset = _decode_varint(data, offset)
    anonymous = []
    for _ in range(anon_count):
        value, offset = _decode_str(data, offset)
        anonymous.append(value)
    return DVVSet(entries, anonymous), offset


_BODY_DECODERS = {
    b"V": _decode_vv_body,
    b"D": _decode_dvv_body,
    b"H": _decode_history_body,
    b"S": _decode_dvvset_body,
}


def decode(data: bytes) -> Clock:
    """Decode a byte string produced by :func:`encode`.

    Malformed input of any kind — truncation, invalid UTF-8, fields a clock
    constructor rejects — raises :class:`SerializationError`.
    """
    if not data:
        raise SerializationError("empty input")
    decode_body = _BODY_DECODERS.get(data[:1])
    if decode_body is None:
        raise SerializationError(f"unknown clock tag {data[:1]!r}")
    try:
        clock, offset = decode_body(data, 1)
    except (UnicodeDecodeError, ClockError, IndexError) as exc:
        raise SerializationError(f"malformed clock encoding: {exc!r}") from exc
    if offset != len(data):
        raise SerializationError(
            f"trailing bytes after decoding ({len(data) - offset} left)")
    return clock


# ---------------------------------------------------------------------- #
# JSON encoding
# ---------------------------------------------------------------------- #
def to_json(clock: Clock) -> Dict[str, Any]:
    """A human-readable JSON-compatible representation of any clock."""
    if isinstance(clock, VersionVector):
        return {"type": "version_vector", "entries": dict(clock.items())}
    if isinstance(clock, DottedVersionVector):
        return {
            "type": "dotted_version_vector",
            "dot": list(clock.dot.as_tuple()),
            "causal_past": dict(clock.causal_past.items()),
        }
    if isinstance(clock, CausalHistory):
        return {
            "type": "causal_history",
            "event": list(clock.event.as_tuple()) if clock.event else None,
            "events": [list(d.as_tuple()) for d in sorted(clock.events())],
        }
    if isinstance(clock, DVVSet):
        return {
            "type": "dvvset",
            "entries": [[actor, counter, list(values)] for actor, counter, values in clock.entries],
            "anonymous": list(clock.anonymous),
        }
    raise SerializationError(f"cannot convert {type(clock).__name__} to JSON")


def from_json(payload: Dict[str, Any]) -> Clock:
    """Inverse of :func:`to_json`."""
    kind = payload.get("type")
    if kind == "version_vector":
        return VersionVector(payload["entries"])
    if kind == "dotted_version_vector":
        actor, counter = payload["dot"]
        return DottedVersionVector(Dot(actor, counter), VersionVector(payload["causal_past"]))
    if kind == "causal_history":
        event = Dot(*payload["event"]) if payload.get("event") else None
        return CausalHistory.from_events((Dot(a, c) for a, c in payload["events"]), event)
    if kind == "dvvset":
        entries = [(actor, counter, tuple(values)) for actor, counter, values in payload["entries"]]
        return DVVSet(entries, payload.get("anonymous", ()))
    raise SerializationError(f"unknown clock type {kind!r}")


# ---------------------------------------------------------------------- #
# Size accounting — what the metadata experiments measure
# ---------------------------------------------------------------------- #
def encoded_size(clock: Clock) -> int:
    """Number of bytes of the compact binary encoding of ``clock``.

    A cache read after the instance has been encoded once (metadata-size
    accounting in the mechanisms calls this per request on the same stored
    clocks, so the memo carries the whole measurement path).
    """
    return len(codec.canonical_bytes(clock))


def entry_count(clock: Clock) -> int:
    """Number of logical entries in the clock (the paper's "size of metadata").

    * version vector: number of (actor, counter) pairs;
    * DVV: vector entries + 1 for the dot;
    * DVVSet: number of per-actor entries;
    * causal history: number of recorded events (unbounded).
    """
    if isinstance(clock, VersionVector):
        return len(clock)
    if isinstance(clock, DottedVersionVector):
        return len(clock.causal_past) + 1
    if isinstance(clock, DVVSet):
        return clock.entry_count()
    if isinstance(clock, CausalHistory):
        return len(clock)
    raise SerializationError(f"cannot size object of type {type(clock).__name__}")
