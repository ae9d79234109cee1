"""Wire format of the asyncio backend: framing plus a payload codec.

The simulated transport passes :class:`~repro.network.message.Message`
objects around in memory; the asyncio backend puts the same messages on real
sockets.  Each message travels as one *frame*:

    +----------------+---------+-----------------------------------------+
    | length (4B BE) | version | message body (see :func:`encode_message`)|
    +----------------+---------+-----------------------------------------+

The length prefix counts everything after itself; :func:`frame_message` writes
a frame and :func:`split_frames` cuts complete ones off a receive buffer.  The
body reuses the varint/length-prefixed-string primitives and clock-body
parsers of :mod:`repro.core.codec` and adds a small recursive *value* codec
for the payload dictionaries, whose entries mix plain Python data with the
repo's causality types (dots, clocks, siblings, causal contexts).  Both
directions are one table lookup per value — the encoder of ``type(value)``,
the decoder of the tag byte — not a chain of tests.  The codec is strict in
both directions: an unsupported payload type raises
:class:`SerializationError` at encode time (instead of pickling arbitrary
objects), and a malformed or truncated frame raises at decode time.

``tuple`` and ``list`` are distinct tags, because mechanism states are tuples
and handlers pattern-match on their shape; round-tripping must not quietly
turn one into the other.

Since ``WIRE_VERSION`` 2 no frame carries the correctness oracle: a causal
context (``C``) is key + mechanism context + mechanism name.  Ground-truth
causal histories live in :class:`~repro.kvstore.write_log.WriteLog`; an ``H``
record appears on the wire only as the ``causal_history`` *mechanism's* own
clock, so every other mechanism's frames stay bounded by its metadata.

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
one byte (:data:`TYPE_CODES`).

``WIRE_VERSION`` 4 names a write by its origin dot alone: a sibling (``G``)
is value + origin dot.  The writer is the dot's actor, so version 3's writer
string and process-local uid are gone from the record, and a
``COORDINATE_PUT`` payload is key + sibling + context, with no ``client_id``.

Every decoding failure — truncation, an unknown tag, invalid UTF-8, a clock
whose fields violate its invariants — surfaces from :func:`decode_message` as
:class:`SerializationError`, the one exception a reader has to handle.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..clocks.interface import Sibling
from ..clocks.vve import DottedVVE, VersionVectorWithExceptions
from ..core import codec
from ..core.causal_history import CausalHistory
from ..core.codec import (
    _decode_actor,
    _decode_dot,
    _decode_dvv_body,
    _decode_history_body,
    _decode_str,
    _decode_varint,
    _decode_vv_body,
    _write_dot,
    _write_str,
    _write_varint,
)
from ..core.dot import Dot
from ..core.dvv import DottedVersionVector
from ..core.dvvset import DVVSet
from ..core.exceptions import ClockError, SerializationError
from ..core.version_vector import VersionVector
from ..kvstore.context import CausalContext
from .message import Message, MessageType

#: Bumped when the frame layout or a tag changes incompatibly.
WIRE_VERSION = 4

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
    # 11 and 12 belonged to the retired full-state exchange's request and
    # reply; they are never reused.
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

#: What decoding corrupt bytes can raise besides SerializationError itself
#: (IndexError: a read past the end of a truncated body);
#: :func:`decode_message` maps them all to SerializationError.
_MALFORMED = (IndexError, UnicodeDecodeError, ClockError, TypeError,
              RecursionError)

#: Payload values that make a sibling record a pure function of the instance.
_SCALARS = (str, int, float, bool, bytes, type(None))

_set_attr = object.__setattr__


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
# Encoding values: one encoder per type, found by table lookup
# ---------------------------------------------------------------------- #
def _encode_value(value: Any, out: bytearray) -> None:
    (_ENCODERS.get(type(value)) or _inherited_encoder(value))(value, out)


def _inherited_encoder(value: Any) -> Callable[[Any, bytearray], None]:
    """The encoder of a value whose exact type the table does not hold: that
    of the first listed type it is an instance of (the table is in tag
    order, ``bool`` before ``int``), so a subclass travels as its base."""
    for cls, encoder in _ENCODERS.items():
        if isinstance(value, cls):
            return encoder
    raise SerializationError(
        f"cannot put object of type {type(value).__name__} on the wire")


def _encode_items(items: Any, out: bytearray) -> None:
    """``varint(count)``, then every item."""
    _write_varint(out, len(items))
    encoders = _ENCODERS
    for item in items:
        (encoders.get(type(item)) or _inherited_encoder(item))(item, out)


def _encode_none(value: None, out: bytearray) -> None:
    out += b"N"


def _encode_bool(value: bool, out: bytearray) -> None:
    out += b"T" if value else b"F"


#: The most negative integer the wire carries (64-bit zigzag).  Non-negative
#: values are bounded by the varint cap instead: ``_write_varint`` refuses a
#: zigzag of 2**70 or more, so nothing encodes that would not decode to itself.
_MIN_INT = -(1 << 63)


def _encode_int(value: int, out: bytearray) -> None:
    if value < _MIN_INT:
        raise SerializationError(
            f"integer {value} is below the wire's range ({_MIN_INT})")
    out += b"i"
    # Zigzag: small magnitudes of either sign stay short varints.
    _write_varint(out, ~(value << 1) if value < 0 else value << 1)


def _encode_float(value: float, out: bytearray) -> None:
    out += b"f"
    out += _FLOAT.pack(value)


def _encode_text(value: str, out: bytearray) -> None:
    out += b"s"
    _write_str(out, value)


def _encode_bytes(value: bytes, out: bytearray) -> None:
    out += b"b"
    _write_varint(out, len(value))
    out += value


def _encode_list(value: list, out: bytearray) -> None:
    out += b"l"
    _encode_items(value, out)


def _encode_tuple(value: tuple, out: bytearray) -> None:
    out += b"t"
    _encode_items(value, out)


def _encode_frozenset(value: frozenset, out: bytearray) -> None:
    out += b"z"
    _encode_items(sorted(value), out)


def _encode_dict(value: dict, out: bytearray) -> None:
    out += b"d"
    _write_varint(out, len(value))
    encoders = _ENCODERS
    for key, item in value.items():
        (encoders.get(type(key)) or _inherited_encoder(key))(key, out)
        (encoders.get(type(item)) or _inherited_encoder(item))(item, out)


def _encode_dot(value: Dot, out: bytearray) -> None:
    out += b"D"
    _write_dot(out, value)


def _encode_clock(value: Any, out: bytearray) -> None:
    """A clock record: ``tag · varint(body length) · body`` from its
    canonical bytes.  For ``V E X H`` the canonical tag is the wire tag; a
    DVV's is "D", which the wire reserves for Dot, so its record is tagged
    "W" (the body layouts are identical)."""
    encoded = codec.canonical_bytes(value)
    out += b"W" if isinstance(value, DottedVersionVector) else encoded[:1]
    _write_varint(out, len(encoded) - 1)
    out += encoded[1:]


def _encode_dvvset(value: DVVSet, out: bytearray) -> None:
    # Unlike repro.core.serialization (which stringifies DVVSet values
    # for size accounting), the wire codec recurses into them: in the
    # store the values are Sibling records and must survive round-trip.
    out += b"S"
    _write_varint(out, len(value.entries))
    for actor, counter, values in value.entries:
        _write_str(out, actor)
        _write_varint(out, counter)
        _encode_items(values, out)
    _encode_items(value.anonymous, out)


def _encode_sibling(value: Sibling, out: bytearray) -> None:
    # Siblings are frozen dataclasses; when the payload value is itself
    # immutable the whole G-record is a pure function of the instance, so
    # memoize it (a sibling is re-sent on every replicate/handoff/repair).
    cached = getattr(value, "_wire_encoded", None)
    if cached is not None:
        out += cached
        return
    body = bytearray()
    _encode_value(value.value, body)
    _write_dot(body, value.origin_dot)
    record = bytearray(b"G")
    _write_varint(record, len(body))
    record += body
    if isinstance(value.value, _SCALARS):
        _set_attr(value, "_wire_encoded", bytes(record))
    out += record


def _encode_context(value: CausalContext, out: bytearray) -> None:
    out += b"C"
    _write_str(out, value.key)
    _encode_value(value.mechanism_context, out)
    _write_str(out, value.mechanism_name)


#: Exact type -> encoder.  The order is the order a subclass is matched in
#: (:func:`_inherited_encoder`) and must not change: it decides a value's tag.
_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_text,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    list: _encode_list,
    tuple: _encode_tuple,
    frozenset: _encode_frozenset,
    dict: _encode_dict,
    Dot: _encode_dot,
    DottedVersionVector: _encode_clock,
    VersionVector: _encode_clock,
    VersionVectorWithExceptions: _encode_clock,
    DottedVVE: _encode_clock,
    CausalHistory: _encode_clock,
    DVVSet: _encode_dvvset,
    Sibling: _encode_sibling,
    CausalContext: _encode_context,
}


# ---------------------------------------------------------------------- #
# Decoding values: one decoder per tag byte, found by table lookup
# ---------------------------------------------------------------------- #
# A decoder is called with the offset just past its tag and returns
# ``(value, offset past the value)``.  One-byte varints — nearly every length
# and count — are read inline as ``data[offset]``.
_Decoder = Callable[[bytes, int, Optional[RecordTable]], Tuple[Any, int]]


def _decode_value(data: bytes, offset: int,
                  records: Optional[RecordTable]) -> Tuple[Any, int]:
    return _DECODERS[data[offset]](data, offset + 1, records)


def _unknown_tag(data: bytes, offset: int, records) -> Tuple[Any, int]:
    raise SerializationError(f"unknown wire tag {data[offset - 1:offset]!r}")


def _decode_int(data: bytes, offset: int, records) -> Tuple[int, int]:
    raw = data[offset]
    if raw < 0x80:
        offset += 1
    else:
        raw, offset = _decode_varint(data, offset)
    return (raw >> 1) ^ -(raw & 1), offset


def _decode_float(data: bytes, offset: int, records) -> Tuple[float, int]:
    if offset + 8 > len(data):
        raise SerializationError("truncated float")
    return _FLOAT.unpack_from(data, offset)[0], offset + 8


def _decode_text(data: bytes, offset: int, records) -> Tuple[str, int]:
    # codec._decode_str, inlined: a string is the most frequent value.
    length = data[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = _decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SerializationError("truncated string")
    return data[offset:end].decode("utf-8"), end


def _decode_bytes(data: bytes, offset: int, records) -> Tuple[bytes, int]:
    length, offset = _decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SerializationError("truncated bytes")
    return data[offset:end], end


def _decode_list(data: bytes, offset: int, records) -> Tuple[List[Any], int]:
    count = data[offset]
    if count < 0x80:
        offset += 1
    else:
        count, offset = _decode_varint(data, offset)
    items: List[Any] = []
    decoders = _DECODERS
    for _ in range(count):
        item, offset = decoders[data[offset]](data, offset + 1, records)
        items.append(item)
    return items, offset


def _decode_tuple(data: bytes, offset: int, records) -> Tuple[tuple, int]:
    items, offset = _decode_list(data, offset, records)
    return tuple(items), offset


def _decode_frozenset(data: bytes, offset: int, records) -> Tuple[frozenset, int]:
    items, offset = _decode_list(data, offset, records)
    return frozenset(items), offset


def _decode_dict(data: bytes, offset: int, records) -> Tuple[Dict[Any, Any], int]:
    count = data[offset]
    if count < 0x80:
        offset += 1
    else:
        count, offset = _decode_varint(data, offset)
    entries: Dict[Any, Any] = {}
    decoders = _DECODERS
    for _ in range(count):
        key, offset = decoders[data[offset]](data, offset + 1, records)
        item, offset = decoders[data[offset]](data, offset + 1, records)
        entries[key] = item
    return entries, offset


def _decode_dvvset(data: bytes, offset: int, records) -> Tuple[DVVSet, int]:
    entry_count, offset = _decode_varint(data, offset)
    entries = []
    for _ in range(entry_count):
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        values, offset = _decode_list(data, offset, records)
        entries.append((actor, counter, tuple(values)))
    anonymous, offset = _decode_list(data, offset, records)
    return DVVSet(entries, anonymous), offset


def _decode_context(data: bytes, offset: int, records) -> Tuple[CausalContext, int]:
    key, offset = _decode_str(data, offset)
    mechanism_context, offset = _DECODERS[data[offset]](data, offset + 1, records)
    mechanism_name, offset = _decode_str(data, offset)
    return CausalContext(
        key=key,
        mechanism_context=mechanism_context,
        mechanism_name=mechanism_name,
    ), offset


# ---------------------------------------------------------------------- #
# Records: decoded at most once per table
# ---------------------------------------------------------------------- #
def _record_decoder(canonical_tag: Optional[bytes], decode_body: _Decoder
                    ) -> _Decoder:
    """The decoder of one record tag.

    ``canonical_tag`` is the tag of the clock's canonical encoding — ``None``
    for the sibling, which has no canonical form.  The length prefix delimits
    the record without parsing it, so its bytes can be looked up first; only
    a miss runs ``decode_body``, and what that builds keeps those bytes as
    its encoding memo.
    """
    def decode(data: bytes, offset: int, records) -> Tuple[Any, int]:
        start = offset - 1
        length = data[offset]
        if length < 0x80:
            offset += 1
        else:
            length, offset = _decode_varint(data, offset)
        end = offset + length
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
        value, body_end = decode_body(data, offset, records)
        if body_end != end:
            raise SerializationError(
                f"{data[start:start + 1]!r} record is {length} bytes long but "
                f"its body ends at {body_end - offset}")
        if canonical_tag is not None:
            _set_attr(value, "_encoded", canonical_tag + data[offset:end])
        elif isinstance(value.value, _SCALARS):
            _set_attr(value, "_wire_encoded", data[start:end])
        else:
            # The payload value is mutable: neither the bytes nor the object
            # may stand in for another arrival.
            return value, end
        if shared:
            if len(records) >= records.MAX_RECORDS:
                records.clear()
            records[record] = value
        return value, end
    return decode


def _clock_body(decode_body: Callable[[bytes, int], Tuple[Any, int]]) -> _Decoder:
    """One of :mod:`~repro.core.codec`'s clock-body parsers (shared with
    ``serialization.decode``) as a record body: a clock nests no record."""
    return lambda data, offset, records: decode_body(data, offset)


def _decode_vve_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    base, offset = _decode_vv_body(data, offset)
    count, offset = _decode_varint(data, offset)
    exceptions = []
    for _ in range(count):
        dot, offset = _decode_dot(data, offset)
        exceptions.append(dot)
    return VersionVectorWithExceptions(base.entries(), exceptions), offset


def _decode_dotted_vve_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    dot, offset = _decode_dot(data, offset)
    # The causal past is nested in this record's body: tagged, not prefixed.
    if data[offset:offset + 1] != b"E":
        raise SerializationError("DottedVVE causal past must be a VVE")
    past, offset = _decode_vve_body(data, offset + 1, records)
    return DottedVVE(dot, past), offset


def _decode_sibling_body(data: bytes, offset: int, records) -> Tuple[Any, int]:
    value, offset = _DECODERS[data[offset]](data, offset + 1, records)
    origin_dot, offset = _decode_dot(data, offset)
    return Sibling(value=value, origin_dot=origin_dot), offset


#: Tag byte -> decoder; every byte that is not a tag raises.
_DECODERS: List[_Decoder] = [_unknown_tag] * 256
for _tag, _decoder in {
    "N": lambda data, offset, records: (None, offset),
    "T": lambda data, offset, records: (True, offset),
    "F": lambda data, offset, records: (False, offset),
    "i": _decode_int,
    "f": _decode_float,
    "s": _decode_text,
    "b": _decode_bytes,
    "l": _decode_list,
    "t": _decode_tuple,
    "z": _decode_frozenset,
    "d": _decode_dict,
    "D": lambda data, offset, records: _decode_dot(data, offset),
    "V": _record_decoder(b"V", _clock_body(_decode_vv_body)),
    "W": _record_decoder(b"D", _clock_body(_decode_dvv_body)),
    "E": _record_decoder(b"E", _decode_vve_body),
    "X": _record_decoder(b"X", _decode_dotted_vve_body),
    "H": _record_decoder(b"H", _clock_body(_decode_history_body)),
    "G": _record_decoder(None, _decode_sibling_body),
    "S": _decode_dvvset,
    "C": _decode_context,
}.items():
    _DECODERS[ord(_tag)] = _decoder


# ---------------------------------------------------------------------- #
# Message bodies and frames
# ---------------------------------------------------------------------- #
def _encode_into(message: Message, out: bytearray) -> None:
    code = TYPE_CODES.get(message.msg_type)
    if code is None:
        raise SerializationError(
            f"message type {message.msg_type!r} has no wire code")
    out.append(WIRE_VERSION)
    out.append(code)
    _write_str(out, message.sender)
    _write_str(out, message.receiver)
    _write_varint(out, message.size_bytes)
    _write_varint(out, message.msg_id)
    if message.request_id is None:
        out.append(0)
    else:
        out.append(1)
        _write_varint(out, message.request_id)
    _encode_value(message.payload, out)


def encode_message(message: Message) -> bytes:
    """Encode a message into one frame body (version byte included)."""
    out = bytearray()
    _encode_into(message, out)
    return bytes(out)


def decode_message(data: bytes,
                   records: Optional[RecordTable] = None) -> Message:
    """Decode one frame body back into a :class:`Message`.

    ``records`` is the receiver's :class:`RecordTable`; without one (tools,
    tests) every record is parsed.  Either way the message is the same.

    The one boundary where malformed input is classified: whatever a corrupt
    body trips over further down — a field cut short, invalid UTF-8 in a
    string, a clock constructor rejecting its fields, an unhashable dict key
    or set member, nesting deeper than the interpreter's stack — leaves here
    as :class:`SerializationError`.
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
    payload, offset = _DECODERS[data[offset]](data, offset + 1, records)
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
    out = bytearray(_LENGTH.size)
    _encode_into(message, out)
    length = len(out) - _LENGTH.size
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES"
        )
    _LENGTH.pack_into(out, 0, length)
    return bytes(out)


def split_frames(buffer: bytearray) -> Iterator[bytes]:
    """Cut every complete frame off the front of ``buffer``; yield the bodies.

    The caller owns ``buffer`` and appends what it receives; what is left in
    it afterwards is the start of a frame still arriving.  The announced
    length is checked as soon as the 4-byte prefix is there, so a corrupt
    prefix raises :class:`SerializationError` before anything of that frame is
    waited for, and a frame that arrives in many chunks is looked at once per
    chunk, never copied until it is complete.
    """
    while len(buffer) >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer)
        if length > MAX_FRAME_BYTES:
            raise SerializationError(
                f"frame length {length} exceeds MAX_FRAME_BYTES (corrupt stream?)"
            )
        end = _LENGTH.size + length
        if len(buffer) < end:
            return
        body = bytes(buffer[_LENGTH.size:end])
        del buffer[:end]
        yield body
