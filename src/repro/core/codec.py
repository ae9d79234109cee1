"""Canonical bytes for clocks: one encoding, computed once, shared everywhere.

Every clock type in the repo (:class:`~repro.core.version_vector.VersionVector`,
:class:`~repro.core.dvv.DottedVersionVector`,
:class:`~repro.core.causal_history.CausalHistory`,
:class:`~repro.core.dvvset.DVVSet`, plus the WinFS baselines registered by
:mod:`repro.clocks.vve`) is a strictly immutable value object, so its compact
binary encoding is a pure function of the instance.  Each instance carries one
memo slot, ``_encoded``, filled on first use:

* :func:`canonical_bytes` returns the canonical encoding, O(entries) the
  first time and an attribute read afterwards;
* :func:`sibling_set_fingerprint` memoizes the mechanism-independent Merkle
  key fingerprint (over sorted sibling origin dots), so a replica merge or
  handoff that reproduces an already-seen sibling set hashes nothing.

The canonical encoding is **byte-identical** to the historic
:func:`repro.core.serialization.encode` output (tags ``V``/``D``/``H``/``S``)
and, for the registered baseline clocks, to the wire value codec's body
(tags ``E``/``X``) — pinned by ``tests/core/golden_clock_encodings.json``.
Consumers therefore share one encoding: ``encoded_size`` is a length of the
cached bytes, and the wire codec embeds them as the body of a
length-prefixed record (tagging DVVs ``W``, not ``D``) and fills the memo of
what it decodes from the bytes that arrived.

Cache-effectiveness counters are kept module-wide (:func:`codec_stats` /
:func:`reset_codec_stats`) so benchmarks can report a hit ratio.

Clock modules must not import this module (it imports them); types outside
``repro.core`` opt in via :func:`register_encoder` at their own import time.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Callable, Dict, List, Tuple

from .causal_history import CausalHistory
from .dot import Dot
from .dvv import DottedVersionVector
from .dvvset import DVVSet
from .exceptions import SerializationError
from .version_vector import VersionVector

#: Slots every canonical clock type reserves for the memoized encoding
#: (declared in each class's ``__slots__``, initialised to None).
MEMO_SLOTS = ("_encoded",)

_sha256 = hashlib.sha256
_set_attr = object.__setattr__


# ---------------------------------------------------------------------- #
# Low-level primitives (LEB128 varints, length-prefixed UTF-8 strings)
# ---------------------------------------------------------------------- #
#: Longest varint the decoder accepts: ten 7-bit groups, enough for every
#: counter, length and 64-bit zigzag integer the codecs write.  Without a cap
#: a run of continuation bytes makes the decoder build a megabit integer one
#: shift at a time — quadratic work inside one frame.
_MAX_VARINT_BITS = 70
_VARINT_LIMIT = 1 << _MAX_VARINT_BITS


def _write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` to ``out`` as an LEB128 varint."""
    if 0 <= value < 0x80:
        out.append(value)
        return
    if not 0 <= value < _VARINT_LIMIT:
        raise SerializationError(f"cannot encode integer {value} as a varint")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _write_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _write_varint(out, len(raw))
    out += raw


def _write_dot(out: bytearray, dot: Dot) -> None:
    _write_str(out, dot.actor)
    _write_varint(out, dot.counter)


def _write_vv_body(out: bytearray, vv: VersionVector) -> None:
    _write_varint(out, len(vv))
    for actor, counter in vv.items():
        _write_str(out, actor)
        _write_varint(out, counter)


# The readers index ``data`` directly: running off the end is an IndexError,
# which the two decoding boundaries (``serialization.decode`` and
# ``wire.decode_message``) report as a truncated encoding.
def _decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = data[offset]
    offset += 1
    if result < 0x80:
        return result, offset
    result &= 0x7F
    shift = 7
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7
        if shift >= _MAX_VARINT_BITS:
            raise SerializationError("varint longer than 10 bytes")


def _decode_str(data: bytes, offset: int) -> Tuple[str, int]:
    length = data[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = _decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SerializationError("truncated string")
    return data[offset:end].decode("utf-8"), end


def _decode_actor(data: bytes, offset: int) -> Tuple[str, int]:
    """Decode a length-prefixed actor id, interned: a decoded cluster's clock
    entries share one string object per actor instead of one per message."""
    actor, offset = _decode_str(data, offset)
    return sys.intern(actor), offset


def _decode_dot(data: bytes, offset: int) -> Tuple[Dot, int]:
    actor, offset = _decode_actor(data, offset)
    counter, offset = _decode_varint(data, offset)
    return Dot(actor, counter), offset


# ---------------------------------------------------------------------- #
# Clock bodies (everything after the tag), shared with the wire codec
# ---------------------------------------------------------------------- #
def _decode_vv_body(data: bytes, offset: int) -> Tuple[VersionVector, int]:
    count, offset = _decode_varint(data, offset)
    entries: Dict[str, int] = {}
    for _ in range(count):
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        entries[actor] = counter
    return VersionVector(entries), offset


def _decode_dvv_body(data: bytes, offset: int
                     ) -> Tuple[DottedVersionVector, int]:
    dot, offset = _decode_dot(data, offset)
    past, offset = _decode_vv_body(data, offset)
    return DottedVersionVector(dot, past), offset


def _decode_history_body(data: bytes, offset: int) -> Tuple[CausalHistory, int]:
    has_event, offset = _decode_varint(data, offset)
    event = None
    if has_event:
        event, offset = _decode_dot(data, offset)
    count, offset = _decode_varint(data, offset)
    dots: List[Dot] = []
    for _ in range(count):
        dot, offset = _decode_dot(data, offset)
        dots.append(dot)
    return CausalHistory.from_events(dots, event), offset


def _value_to_str(value: Any) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, default=str)


# ---------------------------------------------------------------------- #
# Cache-effectiveness counters
# ---------------------------------------------------------------------- #
_STATS = {
    "encode_hits": 0,
    "encode_misses": 0,
    # Never counted; kept at zero because benchmarks/e2e/e2e_child.py reads them.
    "fingerprint_hits": 0,
    "fingerprint_misses": 0,
    "state_fp_hits": 0,
    "state_fp_misses": 0,
}


def codec_stats() -> Dict[str, int]:
    """A copy of the cache counters (hits are reads served from a memo)."""
    return dict(_STATS)


def reset_codec_stats() -> None:
    """Zero the cache counters (benchmarks bracket measurements with this)."""
    for name in _STATS:
        _STATS[name] = 0


def cache_hit_ratio(stats: Dict[str, int], prefix: str = "encode") -> float:
    """``hits / (hits + misses)`` for one counter family (0.0 when idle)."""
    hits = stats[f"{prefix}_hits"]
    total = hits + stats[f"{prefix}_misses"]
    return hits / total if total else 0.0


# ---------------------------------------------------------------------- #
# Cold encoders (run once per instance)
# ---------------------------------------------------------------------- #
def _encode_vv(vv: VersionVector) -> bytes:
    out = bytearray(b"V")
    _write_vv_body(out, vv)
    return bytes(out)


def _encode_dvv(clock: DottedVersionVector) -> bytes:
    out = bytearray(b"D")
    _write_dot(out, clock.dot)
    _write_vv_body(out, clock.causal_past)
    return bytes(out)


def _encode_history(clock: CausalHistory) -> bytes:
    dots = sorted(clock.events())
    out = bytearray(b"H")
    event = clock.event
    out.append(1 if event is not None else 0)
    if event is not None:
        _write_dot(out, event)
    _write_varint(out, len(dots))
    for dot in dots:
        _write_dot(out, dot)
    return bytes(out)


def _encode_dvvset(clock: DVVSet) -> bytes:
    out = bytearray(b"S")
    _write_varint(out, len(clock.entries))
    for actor, counter, values in clock.entries:
        _write_str(out, actor)
        _write_varint(out, counter)
        _write_varint(out, len(values))
        for value in values:
            _write_str(out, _value_to_str(value))
    _write_varint(out, len(clock.anonymous))
    for value in clock.anonymous:
        _write_str(out, _value_to_str(value))
    return bytes(out)


#: Cold encoder per supported type.  Types outside ``repro.core`` (the WinFS
#: baselines) add themselves via :func:`register_encoder` when their module
#: is imported, keeping the import graph acyclic.
_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    VersionVector: _encode_vv,
    DottedVersionVector: _encode_dvv,
    CausalHistory: _encode_history,
    DVVSet: _encode_dvvset,
}


def register_encoder(cls: type, encoder: Callable[[Any], bytes]) -> None:
    """Opt a clock type into the canonical-bytes layer.

    ``cls`` must reserve the :data:`MEMO_SLOTS` (initialised to None) and be
    strictly immutable — the encoding is computed once per instance and never
    invalidated.
    """
    _ENCODERS[cls] = encoder


def is_canonical_type(value: Any) -> bool:
    """True when ``value`` participates in the canonical-bytes layer."""
    return type(value) in _ENCODERS


# ---------------------------------------------------------------------- #
# The memoized public surface
# ---------------------------------------------------------------------- #
def canonical_bytes(clock: Any) -> bytes:
    """The canonical binary encoding of ``clock``, memoized on the instance."""
    try:
        encoded = clock._encoded
    except AttributeError:
        raise SerializationError(
            f"cannot encode object of type {type(clock).__name__}"
        ) from None
    if encoded is not None:
        _STATS["encode_hits"] += 1
        return encoded
    encoder = _ENCODERS.get(type(clock))
    if encoder is None:
        raise SerializationError(
            f"cannot encode object of type {type(clock).__name__}"
        )
    _STATS["encode_misses"] += 1
    encoded = encoder(clock)
    _set_attr(clock, "_encoded", encoded)
    return encoded


# ---------------------------------------------------------------------- #
# Sibling-set fingerprints (the Merkle layers' unit of work)
# ---------------------------------------------------------------------- #
#: Bounded memo of sibling-set fingerprints keyed by the sorted origin-dot
#: tuple.  Mechanism states are plain tuples (not attribute-bearing), so the
#: memo lives here; the bound keeps a long churny run from accumulating every
#: sibling set it ever saw.
_STATE_FP_CACHE: Dict[Tuple[Dot, ...], bytes] = {}
_STATE_FP_CACHE_MAX = 16384


def sibling_set_material(dots: Tuple[Dot, ...]) -> bytes:
    """The byte material a sibling set's Merkle fingerprint hashes.

    ``dots`` must already be sorted; the format is pinned (it predates this
    module) — changing it changes every Merkle digest in the system.
    """
    return ";".join(f"{d.actor}:{d.counter}" for d in dots).encode("utf-8")


def sibling_set_fingerprint(dots: Tuple[Dot, ...]) -> bytes:
    """Fingerprint of a sorted tuple of sibling origin dots, memoized.

    Two replicas store the same versions of a key iff their sorted origin-dot
    tuples are equal, so the memo turns the common convergence cases — a
    merge, handoff or replayed hint that reproduces an already-fingerprinted
    sibling set — into a dict lookup instead of a sha256.
    """
    cached = _STATE_FP_CACHE.get(dots)
    if cached is not None:
        _STATS["state_fp_hits"] += 1
        return cached
    _STATS["state_fp_misses"] += 1
    digest = _sha256(sibling_set_material(dots)).digest()
    if len(_STATE_FP_CACHE) >= _STATE_FP_CACHE_MAX:
        _STATE_FP_CACHE.clear()
    _STATE_FP_CACHE[dots] = digest
    return digest


def clear_state_fingerprint_cache() -> None:
    """Drop the sibling-set memo (tests use this to force cold recomputes)."""
    _STATE_FP_CACHE.clear()


__all__ = [
    "MEMO_SLOTS",
    "cache_hit_ratio",
    "canonical_bytes",
    "clear_state_fingerprint_cache",
    "codec_stats",
    "is_canonical_type",
    "register_encoder",
    "reset_codec_stats",
    "sibling_set_fingerprint",
    "sibling_set_material",
]
