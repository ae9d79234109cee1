"""Wire format of the asyncio backend: framing plus a payload codec.

The simulated transport passes :class:`~repro.network.message.Message`
objects around in memory; the asyncio backend puts the same messages on real
sockets.  Each message travels as one *frame*:

    +----------------+---------+-----------------------------------------+
    | length (4B BE) | version | message body (see :func:`encode_message`)|
    +----------------+---------+-----------------------------------------+

The length prefix counts everything after itself.  The body reuses the
varint/length-prefixed-string primitives of :mod:`repro.core.serialization`
and adds a small recursive *value* codec for the payload dictionaries, whose
entries mix plain Python data with the repo's causality types (dots, clocks,
siblings, causal contexts).  The codec is strict in both directions: an
unsupported payload type raises :class:`SerializationError` at encode time
(instead of pickling arbitrary objects), and a malformed or truncated frame
raises at decode time.

Two deliberate choices:

* ``tuple`` and ``list`` are distinct tags, because mechanism states are
  tuples and handlers pattern-match on their shape; round-tripping must not
  quietly turn one into the other.
* :class:`~repro.clocks.interface.Sibling` keeps its ``uid`` across the wire.
  Uids are process-local sequence numbers; within one process (the backend's
  intended deployment for experiments) preserving them keeps report output
  stable, and between processes they are only used for display.

Since ``WIRE_VERSION`` 2 no frame carries the correctness oracle: a sibling
(``G``) is value + origin dot + writer + uid and a causal context (``C``) is
key + mechanism context + mechanism name.  Ground-truth causal histories live
in :class:`~repro.kvstore.write_log.WriteLog`; an ``H`` record appears on the
wire only as the ``causal_history`` *mechanism's* own clock, so every other
mechanism's frames stay bounded by its metadata.

Every decoding failure — truncation, an unknown tag, invalid UTF-8, a clock
whose fields violate its invariants — surfaces from :func:`decode_message` as
:class:`SerializationError`, the one exception a reader has to handle.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from ..clocks.interface import Sibling
from ..core import codec
from ..core.causal_history import CausalHistory
from ..core.dot import Dot
from ..core.dvv import DottedVersionVector
from ..core.dvvset import DVVSet
from ..core.exceptions import ClockError, SerializationError
from ..core.serialization import (
    _decode_actor,
    _decode_str,
    _decode_varint,
    _decode_vv_body,
    _encode_str,
    _encode_varint,
    _encode_vv_body,
)
from ..core.version_vector import VersionVector
from ..clocks.vve import DottedVVE, VersionVectorWithExceptions
from ..kvstore.context import CausalContext
from .message import Message, MessageType

#: Bumped when the frame layout or a tag changes incompatibly.
WIRE_VERSION = 2

#: Upper bound on one frame's body (guards against a corrupted length prefix
#: making the reader try to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_FLOAT = struct.Struct(">d")

#: What decoding corrupt bytes can raise besides SerializationError itself;
#: :func:`decode_message` maps them all to SerializationError.
_MALFORMED = (UnicodeDecodeError, ClockError, TypeError, RecursionError)


# ---------------------------------------------------------------------- #
# Recursive value codec
# ---------------------------------------------------------------------- #
def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"i"
        out += _encode_varint(_zigzag(value))
    elif isinstance(value, float):
        out += b"f"
        out += _FLOAT.pack(value)
    elif isinstance(value, str):
        out += b"s"
        out += _encode_str(value)
    elif isinstance(value, (bytes, bytearray)):
        out += b"b"
        out += _encode_varint(len(value))
        out += value
    elif isinstance(value, list):
        out += b"l"
        out += _encode_varint(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, tuple):
        out += b"t"
        out += _encode_varint(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, frozenset):
        out += b"z"
        out += _encode_varint(len(value))
        for item in sorted(value):
            _encode_value(item, out)
    elif isinstance(value, dict):
        out += b"d"
        out += _encode_varint(len(value))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    elif isinstance(value, Dot):
        out += b"D"
        out += _encode_str(value.actor)
        out += _encode_varint(value.counter)
    elif isinstance(value, VersionVector):
        # Canonical tag "V" matches the wire tag: embed the cached bytes.
        out += codec.canonical_bytes(value)
    elif isinstance(value, DottedVersionVector):
        # Canonical tag is "D" (the wire reserves "D" for Dot): retag to "W",
        # the body layouts are identical.
        out += b"W"
        out += codec.canonical_bytes(value)[1:]
    elif isinstance(value, VersionVectorWithExceptions):
        # Canonical "E" encoding (registered by repro.clocks.vve) matches.
        out += codec.canonical_bytes(value)
    elif isinstance(value, DottedVVE):
        out += codec.canonical_bytes(value)
    elif isinstance(value, CausalHistory):
        out += codec.canonical_bytes(value)
    elif isinstance(value, DVVSet):
        # Unlike repro.core.serialization (which stringifies DVVSet values
        # for size accounting), the wire codec recurses into them: in the
        # store the values are Sibling records and must survive round-trip.
        out += b"S"
        out += _encode_varint(len(value.entries))
        for actor, counter, values in value.entries:
            out += _encode_str(actor)
            out += _encode_varint(counter)
            out += _encode_varint(len(values))
            for item in values:
                _encode_value(item, out)
        out += _encode_varint(len(value.anonymous))
        for item in value.anonymous:
            _encode_value(item, out)
    elif isinstance(value, Sibling):
        # Siblings are frozen dataclasses; when the payload value is itself
        # immutable the whole G-record is a pure function of the instance, so
        # memoize it (a sibling is re-sent on every replicate/handoff/repair).
        cached = getattr(value, "_wire_encoded", None)
        if cached is not None:
            out += cached
            return
        record = bytearray(b"G")
        _encode_value(value.value, record)
        record += _encode_str(value.origin_dot.actor)
        record += _encode_varint(value.origin_dot.counter)
        _encode_value(value.writer, record)
        record += _encode_varint(value.uid)
        if isinstance(value.value, (str, int, float, bool, bytes, type(None))):
            object.__setattr__(value, "_wire_encoded", bytes(record))
        out += record
    elif isinstance(value, CausalContext):
        out += b"C"
        out += _encode_str(value.key)
        _encode_value(value.mechanism_context, out)
        out += _encode_str(value.mechanism_name)
    else:
        raise SerializationError(
            f"cannot put object of type {type(value).__name__} on the wire"
        )


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise SerializationError("truncated value")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        raw, offset = _decode_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == b"f":
        if offset + 8 > len(data):
            raise SerializationError("truncated float")
        return _FLOAT.unpack_from(data, offset)[0], offset + 8
    if tag == b"s":
        return _decode_str(data, offset)
    if tag == b"b":
        length, offset = _decode_varint(data, offset)
        if offset + length > len(data):
            raise SerializationError("truncated bytes")
        return data[offset:offset + length], offset + length
    if tag in (b"l", b"t", b"z"):
        count, offset = _decode_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_value(data, offset)
            items.append(item)
        if tag == b"l":
            return items, offset
        if tag == b"t":
            return tuple(items), offset
        return frozenset(items), offset
    if tag == b"d":
        count, offset = _decode_varint(data, offset)
        entries: Dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode_value(data, offset)
            item, offset = _decode_value(data, offset)
            entries[key] = item
        return entries, offset
    if tag == b"D":
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        return Dot(actor, counter), offset
    if tag == b"V":
        return _decode_vv_body(data, offset)
    if tag == b"W":
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        past, offset = _decode_vv_body(data, offset)
        return DottedVersionVector(Dot(actor, counter), past), offset
    if tag == b"E":
        base, offset = _decode_vv_body(data, offset)
        count, offset = _decode_varint(data, offset)
        exceptions = []
        for _ in range(count):
            actor, offset = _decode_actor(data, offset)
            counter, offset = _decode_varint(data, offset)
            exceptions.append(Dot(actor, counter))
        return VersionVectorWithExceptions(base.entries(), exceptions), offset
    if tag == b"X":
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        past, offset = _decode_value(data, offset)
        if not isinstance(past, VersionVectorWithExceptions):
            raise SerializationError("DottedVVE causal past must be a VVE")
        return DottedVVE(Dot(actor, counter), past), offset
    if tag == b"H":
        has_event, offset = _decode_varint(data, offset)
        event = None
        if has_event:
            actor, offset = _decode_actor(data, offset)
            counter, offset = _decode_varint(data, offset)
            event = Dot(actor, counter)
        count, offset = _decode_varint(data, offset)
        dots = []
        for _ in range(count):
            actor, offset = _decode_actor(data, offset)
            counter, offset = _decode_varint(data, offset)
            dots.append(Dot(actor, counter))
        return CausalHistory.from_events(dots, event), offset
    if tag == b"S":
        entry_count, offset = _decode_varint(data, offset)
        entries = []
        for _ in range(entry_count):
            actor, offset = _decode_actor(data, offset)
            counter, offset = _decode_varint(data, offset)
            value_count, offset = _decode_varint(data, offset)
            values = []
            for _ in range(value_count):
                item, offset = _decode_value(data, offset)
                values.append(item)
            entries.append((actor, counter, tuple(values)))
        anon_count, offset = _decode_varint(data, offset)
        anonymous = []
        for _ in range(anon_count):
            item, offset = _decode_value(data, offset)
            anonymous.append(item)
        return DVVSet(entries, anonymous), offset
    if tag == b"G":
        value, offset = _decode_value(data, offset)
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        writer, offset = _decode_value(data, offset)
        uid, offset = _decode_varint(data, offset)
        return Sibling(value=value, origin_dot=Dot(actor, counter),
                       writer=writer, uid=uid), offset
    if tag == b"C":
        key, offset = _decode_str(data, offset)
        mechanism_context, offset = _decode_value(data, offset)
        mechanism_name, offset = _decode_str(data, offset)
        return CausalContext(
            key=key,
            mechanism_context=mechanism_context,
            mechanism_name=mechanism_name,
        ), offset
    raise SerializationError(f"unknown wire tag {tag!r}")


# ---------------------------------------------------------------------- #
# Message bodies and frames
# ---------------------------------------------------------------------- #
def encode_message(message: Message) -> bytes:
    """Encode a message into one frame body (version byte included)."""
    out = bytearray()
    out.append(WIRE_VERSION)
    out += _encode_str(message.msg_type.value)
    out += _encode_str(message.sender)
    out += _encode_str(message.receiver)
    out += _encode_varint(message.size_bytes)
    out += _encode_varint(message.msg_id)
    out += _encode_varint(1 if message.request_id is not None else 0)
    if message.request_id is not None:
        out += _encode_varint(message.request_id)
    _encode_value(message.payload, out)
    return bytes(out)


def decode_message(data: bytes) -> Message:
    """Decode one frame body back into a :class:`Message`.

    The one boundary where malformed input is classified: whatever a corrupt
    body trips over further down — invalid UTF-8 in a string, a clock
    constructor rejecting its fields, an unhashable dict key or set member,
    nesting deeper than the interpreter's stack — leaves here as
    :class:`SerializationError`.
    """
    try:
        return _decode_message(data)
    except _MALFORMED as exc:
        raise SerializationError(f"malformed frame: {exc!r}") from exc


def _decode_message(data: bytes) -> Message:
    if not data:
        raise SerializationError("empty frame")
    version = data[0]
    if version != WIRE_VERSION:
        raise SerializationError(
            f"unsupported wire version {version} (speak {WIRE_VERSION})"
        )
    offset = 1
    type_value, offset = _decode_str(data, offset)
    try:
        msg_type = MessageType(type_value)
    except ValueError as exc:
        raise SerializationError(f"unknown message type {type_value!r}") from exc
    sender, offset = _decode_str(data, offset)
    receiver, offset = _decode_str(data, offset)
    size_bytes, offset = _decode_varint(data, offset)
    msg_id, offset = _decode_varint(data, offset)
    has_request_id, offset = _decode_varint(data, offset)
    request_id = None
    if has_request_id:
        request_id, offset = _decode_varint(data, offset)
    payload, offset = _decode_value(data, offset)
    if offset != len(data):
        raise SerializationError(
            f"trailing bytes after decoding message ({len(data) - offset} left)"
        )
    return Message(
        sender=sender,
        receiver=receiver,
        msg_type=msg_type,
        payload=payload,
        size_bytes=size_bytes,
        request_id=request_id,
        msg_id=msg_id,
    )


def frame_message(message: Message) -> bytes:
    """One wire frame: 4-byte big-endian length prefix plus the body."""
    body = encode_message(message)
    if len(body) > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(body)) + body


def unframe(buffer: bytes) -> Tuple[Any, bytes]:
    """Split one complete frame off ``buffer``.

    Returns ``(message, rest)`` — or ``(None, buffer)`` when the buffer does
    not yet hold a complete frame (the caller keeps reading).
    """
    if len(buffer) < _LENGTH.size:
        return None, buffer
    (length,) = _LENGTH.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame length {length} exceeds MAX_FRAME_BYTES (corrupt stream?)"
        )
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None, buffer
    return decode_message(buffer[_LENGTH.size:end]), buffer[end:]


async def read_message(reader) -> Message:
    """Read exactly one framed message from an asyncio stream reader.

    Raises ``asyncio.IncompleteReadError`` on a cleanly closed connection
    (empty partial read) and :class:`SerializationError` on corruption.
    """
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame length {length} exceeds MAX_FRAME_BYTES (corrupt stream?)"
        )
    body = await reader.readexactly(length)
    return decode_message(body)
