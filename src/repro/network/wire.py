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

``WIRE_VERSION`` 3 makes every immutable causality value a *record*: the
clocks ``V W E X H`` and the sibling ``G`` travel as ``tag · varint(body
length) · body``, so a decoder can take the record's bytes off the frame
without parsing them.  A receiving endpoint owns one :class:`RecordTable` from
those bytes to the object they decoded to; a record it has decoded before —
most of a hot key's ``REPLICA_PUT`` — is a dict lookup, and one it has not is
parsed as before and keeps the bytes it arrived as for when it is forwarded
(the clock's ``_encoded`` memo, the sibling's ``_wire_encoded``).  A clock
nested in another record's body (the ``E`` inside an ``X``) has no prefix of
its own: the outer record is the unit.  ``S`` (a DVVSet) is not a record, its
``G`` children are.  The same version writes the envelope's message type as
one byte (:data:`TYPE_CODES`) and a sibling's writer as a bare string (empty
= ``None``).

Every decoding failure — truncation, an unknown tag, invalid UTF-8, a clock
whose fields violate its invariants — surfaces from :func:`decode_message` as
:class:`SerializationError`, the one exception a reader has to handle.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple

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
WIRE_VERSION = 3

#: The envelope's one-byte message type.  Wire-only and pinned: a code is
#: never renumbered or reused, a new :class:`MessageType` member takes the
#: next free one.
TYPE_CODES: Dict[MessageType, int] = {
    MessageType.COORDINATE_GET: 1,
    MessageType.COORDINATE_PUT: 2,
    MessageType.GET_REPLY: 3,
    MessageType.PUT_REPLY: 4,
    MessageType.ERROR_REPLY: 5,
    MessageType.REPLICA_GET: 6,
    MessageType.REPLICA_GET_REPLY: 7,
    MessageType.REPLICA_PUT: 8,
    MessageType.REPLICA_PUT_ACK: 9,
    MessageType.READ_REPAIR: 10,
    MessageType.SYNC_REQUEST: 11,
    MessageType.SYNC_REPLY: 12,
    MessageType.MERKLE_PARTITION_DIGESTS: 13,
    MessageType.MERKLE_PARTITION_DIFF: 14,
    MessageType.MERKLE_SYNC_REQUEST: 15,
    MessageType.MERKLE_SYNC_RESPONSE: 16,
    MessageType.MERKLE_KEY_STATES: 17,
    MessageType.HINT_REPLAY: 18,
    MessageType.HINT_ACK: 19,
    MessageType.KEY_HANDOFF: 20,
    MessageType.PING: 21,
    MessageType.PONG: 22,
}
_TYPES_BY_CODE = {code: msg_type for msg_type, code in TYPE_CODES.items()}

#: Upper bound on one frame's body (guards against a corrupted length prefix
#: making the reader try to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_FLOAT = struct.Struct(">d")

#: What decoding corrupt bytes can raise besides SerializationError itself;
#: :func:`decode_message` maps them all to SerializationError.
_MALFORMED = (UnicodeDecodeError, ClockError, TypeError, RecursionError)

#: Payload values that make a sibling record a pure function of the instance.
_SCALARS = (str, int, float, bool, bytes, type(None))


class RecordTable(dict):
    """One receiving endpoint's decoded records, keyed by their wire bytes.

    Decoding is a pure function of a record's bytes and every record type is
    immutable, so the object a record decoded to can stand in for every later
    arrival of the same bytes.  The table is owned by whoever receives the
    frames (an :class:`~repro.network.asyncio_transport.AsyncioEndpoint`), not
    by the process: a node only ever saves work on records *it* has seen.

    Bounded like the sibling-set fingerprint memo — cleared when it holds
    :attr:`MAX_RECORDS` entries — and records longer than
    :attr:`MAX_RECORD_BYTES` are not kept, so what a peer can pin in memory is
    a fixed number of bytes, whatever it sends.
    """

    __slots__ = ("hits", "misses")

    MAX_RECORDS = 16384
    MAX_RECORD_BYTES = 1024

    def __init__(self) -> None:
        super().__init__()
        #: Records served from the table / parsed (then kept if shareable).
        self.hits = 0
        self.misses = 0


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
    elif isinstance(value, DottedVersionVector):
        # Canonical tag is "D" (the wire reserves "D" for Dot): a DVV record
        # is tagged "W", the body layouts are identical.
        _encode_record(b"W", codec.canonical_bytes(value), out)
    elif isinstance(value, (VersionVector, VersionVectorWithExceptions,
                            DottedVVE, CausalHistory)):
        # V, E, X, H: the canonical tag is the wire tag.
        encoded = codec.canonical_bytes(value)
        _encode_record(encoded[:1], encoded, out)
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
        body = bytearray()
        _encode_value(value.value, body)
        body += _encode_str(value.origin_dot.actor)
        body += _encode_varint(value.origin_dot.counter)
        body += _encode_str(value.writer or "")
        body += _encode_varint(value.uid)
        record = b"G" + _encode_varint(len(body)) + body
        if isinstance(value.value, _SCALARS):
            object.__setattr__(value, "_wire_encoded", record)
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


def _encode_record(tag: bytes, canonical: bytes, out: bytearray) -> None:
    """``tag · varint(body length) · body`` from a clock's canonical bytes."""
    out += tag
    out += _encode_varint(len(canonical) - 1)
    out += canonical[1:]


def _decode_value(data: bytes, offset: int,
                  records: Optional[RecordTable]) -> Tuple[Any, int]:
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
            item, offset = _decode_value(data, offset, records)
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
            key, offset = _decode_value(data, offset, records)
            item, offset = _decode_value(data, offset, records)
            entries[key] = item
        return entries, offset
    if tag == b"D":
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        return Dot(actor, counter), offset
    if tag in _RECORD_BODIES:
        return _decode_record(data, offset - 1, tag, records)
    if tag == b"S":
        entry_count, offset = _decode_varint(data, offset)
        entries = []
        for _ in range(entry_count):
            actor, offset = _decode_actor(data, offset)
            counter, offset = _decode_varint(data, offset)
            value_count, offset = _decode_varint(data, offset)
            values = []
            for _ in range(value_count):
                item, offset = _decode_value(data, offset, records)
                values.append(item)
            entries.append((actor, counter, tuple(values)))
        anon_count, offset = _decode_varint(data, offset)
        anonymous = []
        for _ in range(anon_count):
            item, offset = _decode_value(data, offset, records)
            anonymous.append(item)
        return DVVSet(entries, anonymous), offset
    if tag == b"C":
        key, offset = _decode_str(data, offset)
        mechanism_context, offset = _decode_value(data, offset, records)
        mechanism_name, offset = _decode_str(data, offset)
        return CausalContext(
            key=key,
            mechanism_context=mechanism_context,
            mechanism_name=mechanism_name,
        ), offset
    raise SerializationError(f"unknown wire tag {tag!r}")


# ---------------------------------------------------------------------- #
# Records: decoded at most once per table
# ---------------------------------------------------------------------- #
def _decode_record(data: bytes, start: int, tag: bytes,
                   records: Optional[RecordTable]) -> Tuple[Any, int]:
    """Decode the record starting at ``data[start]`` (its tag).

    The length prefix delimits the record without parsing it, so its bytes
    can be looked up first; only a miss runs the body parser, and what it
    builds keeps those bytes as its encoding memo.
    """
    length, body_start = _decode_varint(data, start + 1)
    end = body_start + length
    if end > len(data):
        raise SerializationError("truncated record")
    # Sliced only when it can be looked up: a record nested in a sibling's
    # list value would otherwise copy the rest of the frame once per level.
    shared = records is not None and end - start <= records.MAX_RECORD_BYTES
    if shared:
        record = data[start:end]
        value = records.get(record)
        if value is not None:
            records.hits += 1
            return value, end
        records.misses += 1
    canonical_tag, decode_body = _RECORD_BODIES[tag]
    value, offset = decode_body(data, body_start, records)
    if offset != end:
        raise SerializationError(
            f"{tag!r} record is {length} bytes long but its body ends at "
            f"{offset - body_start}")
    if canonical_tag is not None:
        object.__setattr__(value, "_encoded",
                           canonical_tag + data[body_start:end])
    elif isinstance(value.value, _SCALARS):
        object.__setattr__(value, "_wire_encoded", data[start:end])
    else:
        # The payload value is mutable: neither the bytes nor the object
        # may stand in for another arrival.
        return value, end
    if shared:
        if len(records) >= records.MAX_RECORDS:
            records.clear()
        records[record] = value
    return value, end


def _decode_vv_record(data: bytes, offset: int, records) -> Tuple[Any, int]:
    return _decode_vv_body(data, offset)


def _decode_dvv_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    actor, offset = _decode_actor(data, offset)
    counter, offset = _decode_varint(data, offset)
    past, offset = _decode_vv_body(data, offset)
    return DottedVersionVector(Dot(actor, counter), past), offset


def _decode_vve_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    base, offset = _decode_vv_body(data, offset)
    count, offset = _decode_varint(data, offset)
    exceptions = []
    for _ in range(count):
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        exceptions.append(Dot(actor, counter))
    return VersionVectorWithExceptions(base.entries(), exceptions), offset


def _decode_dotted_vve_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    actor, offset = _decode_actor(data, offset)
    counter, offset = _decode_varint(data, offset)
    # The causal past is nested in this record's body: tagged, not prefixed.
    if data[offset:offset + 1] != b"E":
        raise SerializationError("DottedVVE causal past must be a VVE")
    past, offset = _decode_vve_body(data, offset + 1, records)
    return DottedVVE(Dot(actor, counter), past), offset


def _decode_history_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
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


def _decode_sibling_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    value, offset = _decode_value(data, offset, records)
    actor, offset = _decode_actor(data, offset)
    counter, offset = _decode_varint(data, offset)
    writer, offset = _decode_str(data, offset)
    uid, offset = _decode_varint(data, offset)
    return Sibling(value=value, origin_dot=Dot(actor, counter),
                   writer=writer or None, uid=uid), offset


#: Record tag -> (tag of the clock's canonical encoding — ``None`` for the
#: sibling, which has no canonical form — and the parser of the body).
_RECORD_BODIES = {
    b"V": (b"V", _decode_vv_record),
    b"W": (b"D", _decode_dvv_body),
    b"E": (b"E", _decode_vve_body),
    b"X": (b"X", _decode_dotted_vve_body),
    b"H": (b"H", _decode_history_body),
    b"G": (None, _decode_sibling_body),
}


# ---------------------------------------------------------------------- #
# Message bodies and frames
# ---------------------------------------------------------------------- #
def encode_message(message: Message) -> bytes:
    """Encode a message into one frame body (version byte included)."""
    code = TYPE_CODES.get(message.msg_type)
    if code is None:
        raise SerializationError(
            f"message type {message.msg_type!r} has no wire code")
    out = bytearray((WIRE_VERSION, code))
    out += _encode_str(message.sender)
    out += _encode_str(message.receiver)
    out += _encode_varint(message.size_bytes)
    out += _encode_varint(message.msg_id)
    out += _encode_varint(1 if message.request_id is not None else 0)
    if message.request_id is not None:
        out += _encode_varint(message.request_id)
    _encode_value(message.payload, out)
    return bytes(out)


def decode_message(data: bytes,
                   records: Optional[RecordTable] = None) -> Message:
    """Decode one frame body back into a :class:`Message`.

    ``records`` is the receiver's :class:`RecordTable`; without one (tools,
    tests) every record is parsed.  Either way the message is the same.

    The one boundary where malformed input is classified: whatever a corrupt
    body trips over further down — invalid UTF-8 in a string, a clock
    constructor rejecting its fields, an unhashable dict key or set member,
    nesting deeper than the interpreter's stack — leaves here as
    :class:`SerializationError`.
    """
    try:
        return _decode_message(data, records)
    except _MALFORMED as exc:
        raise SerializationError(f"malformed frame: {exc!r}") from exc


def _decode_message(data: bytes, records: Optional[RecordTable]) -> Message:
    if len(data) < 2:
        raise SerializationError("truncated frame envelope")
    version = data[0]
    if version != WIRE_VERSION:
        raise SerializationError(
            f"unsupported wire version {version} (speak {WIRE_VERSION})"
        )
    msg_type = _TYPES_BY_CODE.get(data[1])
    if msg_type is None:
        raise SerializationError(f"unknown message type code {data[1]}")
    sender, offset = _decode_str(data, 2)
    receiver, offset = _decode_str(data, offset)
    size_bytes, offset = _decode_varint(data, offset)
    msg_id, offset = _decode_varint(data, offset)
    has_request_id, offset = _decode_varint(data, offset)
    request_id = None
    if has_request_id:
        request_id, offset = _decode_varint(data, offset)
    payload, offset = _decode_value(data, offset, records)
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


async def read_message(reader,
                       records: Optional[RecordTable] = None) -> Message:
    """Read exactly one framed message from an asyncio stream reader.

    ``records`` is the reading endpoint's :class:`RecordTable`.  Raises
    ``asyncio.IncompleteReadError`` on a cleanly closed connection (empty
    partial read) and :class:`SerializationError` on corruption.
    """
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame length {length} exceeds MAX_FRAME_BYTES (corrupt stream?)"
        )
    body = await reader.readexactly(length)
    return decode_message(body, records)
