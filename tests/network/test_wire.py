"""Round-trip tests for the asyncio backend's wire format.

Every payload the protocol puts in a message must survive
``decode(encode(m)) == m`` — mechanism states (tuples of clock/sibling pairs
for dvv and causal_history, a DVVSet for dvvset), causal contexts, digest
bytes, and the plain-data scaffolding around them.  The codec is also strict:
unsupported payload types fail at encode time, corrupt frames at decode time.
"""

from __future__ import annotations

import pytest

from repro.clocks import available, create
from repro.clocks.interface import Sibling
from repro.core.causal_history import CausalHistory
from repro.core.dot import Dot
from repro.core.dvv import DottedVersionVector
from repro.core.exceptions import SerializationError
from repro.core.version_vector import VersionVector
from repro.kvstore.client import ClientSession
from repro.kvstore.context import CausalContext
from repro.network.message import Message, MessageType
from repro.network.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_message,
    encode_message,
    frame_message,
    split_frames,
)


def roundtrip(payload, msg_type=MessageType.REPLICA_PUT, request_id=7) -> Message:
    message = Message(
        sender="A",
        receiver="B",
        msg_type=msg_type,
        payload=payload,
        size_bytes=123,
        request_id=request_id,
    )
    decoded = decode_message(encode_message(message))
    assert decoded.sender == message.sender
    assert decoded.receiver == message.receiver
    assert decoded.msg_type is message.msg_type
    assert decoded.size_bytes == message.size_bytes
    assert decoded.msg_id == message.msg_id
    assert decoded.request_id == message.request_id
    return decoded


def test_plain_values_roundtrip():
    payload = {
        "none": None,
        "flags": [True, False],
        "ints": [0, 1, -1, 2**40, -(2**40)],
        "floats": [0.0, -2.5, 1e300],
        "text": "héllo wörld",
        "blob": b"\x00\xff digest bytes",
        "tuple": (1, ("nested", 2)),
        "set": frozenset({"x", "y"}),
        "nested": {"a": [{"b": (1, 2)}]},
    }
    decoded = roundtrip(payload)
    assert decoded.payload == payload
    # tuple and list are distinct tags — shapes must not drift
    assert isinstance(decoded.payload["tuple"], tuple)
    assert isinstance(decoded.payload["tuple"][1], tuple)
    assert isinstance(decoded.payload["flags"], list)
    assert isinstance(decoded.payload["set"], frozenset)
    assert isinstance(decoded.payload["blob"], bytes)


@pytest.mark.parametrize("value", [
    -(2**63), 2**63 - 1, 2**63, 2**69 - 1,
], ids=["int64-min", "int64-max", "int64-max+1", "varint-cap"])
def test_integers_at_the_edges_of_the_wire_range_roundtrip(value):
    assert roundtrip({"x": value}).payload == {"x": value}


@pytest.mark.parametrize("value", [
    -(2**63) - 1, -(2**64), 2**69,
], ids=["below-int64-min", "far-below", "past-varint-cap"])
def test_an_integer_the_wire_cannot_carry_is_refused_not_mangled(value):
    """Used to frame without error and decode as a different number."""
    message = Message(sender="A", receiver="B",
                      msg_type=MessageType.REPLICA_PUT,
                      payload={"x": value}, size_bytes=0)
    with pytest.raises(SerializationError):
        encode_message(message)


def test_clock_types_roundtrip():
    vv = VersionVector({"A": 3, "B": 1})
    dvv = DottedVersionVector(Dot("A", 4), vv)
    history = CausalHistory.from_events([Dot("A", 1), Dot("B", 2)], Dot("B", 2))
    payload = {"dot": Dot("C", 9), "vv": vv, "dvv": dvv, "history": history}
    decoded = roundtrip(payload)
    assert decoded.payload == payload


@pytest.mark.parametrize("mechanism_name", sorted(available()))
def test_mechanism_states_roundtrip(mechanism_name):
    """Real states produced by each registered mechanism survive the wire."""
    mechanism = create(mechanism_name)
    session = ClientSession("c1")
    state = mechanism.empty_state()
    for value in ("v1", "v2"):
        sibling = session.prepare_write("cart", value)
        state = mechanism.write(state, mechanism.empty_context(), sibling,
                                "A", "c1")
    read = mechanism.read(state)
    context = CausalContext(key="cart", mechanism_context=read.context,
                            mechanism_name=mechanism_name)

    decoded = roundtrip({"key": "cart", "state": state, "context": context})

    assert decoded.payload["state"] == state
    assert type(decoded.payload["state"]) is type(state)
    assert decoded.payload["context"] == context
    # the decoded state must be fully usable by the mechanism
    reread = mechanism.read(decoded.payload["state"])
    assert sorted(s.value for s in reread.siblings) == \
        sorted(s.value for s in read.siblings)


def test_sibling_keeps_uid_and_writer():
    sibling = ClientSession("c9").prepare_write("k", "value")
    decoded = roundtrip({"sibling": sibling})
    wired = decoded.payload["sibling"]
    assert wired == sibling
    assert wired.uid == sibling.uid
    assert wired.writer == sibling.writer
    assert wired.origin_dot == sibling.origin_dot


def test_request_id_absence_roundtrips():
    decoded = roundtrip({"key": "k"}, request_id=None)
    assert decoded.request_id is None


def test_unsupported_payload_type_raises_at_encode_time():
    class Opaque:
        pass

    message = Message(sender="A", receiver="B",
                      msg_type=MessageType.REPLICA_PUT,
                      payload={"oops": Opaque()}, size_bytes=0)
    with pytest.raises(SerializationError):
        encode_message(message)


def test_decode_rejects_wrong_version_and_truncation():
    message = Message(sender="A", receiver="B",
                      msg_type=MessageType.PING, payload={}, size_bytes=0)
    body = encode_message(message)
    with pytest.raises(SerializationError):
        decode_message(bytes([WIRE_VERSION + 1]) + body[1:])
    with pytest.raises(SerializationError):
        decode_message(body[:-1])
    with pytest.raises(SerializationError):
        decode_message(body + b"x")
    with pytest.raises(SerializationError):
        decode_message(b"")


def test_split_frames_handles_partial_and_concatenated_frames():
    first = Message(sender="A", receiver="B", msg_type=MessageType.PING,
                    payload={"n": 1}, size_bytes=0)
    second = Message(sender="B", receiver="A", msg_type=MessageType.PING,
                     payload={"n": 2}, size_bytes=0)
    stream = frame_message(first) + frame_message(second)

    # byte-by-byte: no message until a frame is complete, then exactly one
    buffer = bytearray()
    decoded = []
    for index in range(len(stream)):
        buffer += stream[index:index + 1]
        bodies = list(split_frames(buffer))
        assert len(bodies) <= 1
        decoded += [decode_message(body) for body in bodies]
    assert [m.payload["n"] for m in decoded] == [1, 2]
    assert buffer == b""

    # all at once, with the start of a third frame behind them
    buffer = bytearray(stream + stream[:7])
    assert [decode_message(body) for body in split_frames(buffer)] == decoded
    assert buffer == stream[:7]


def test_split_frames_rejects_absurd_length_prefix():
    buffer = bytearray((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"xxxx")
    with pytest.raises(SerializationError):
        list(split_frames(buffer))


def test_frames_before_a_corrupt_prefix_are_still_cut():
    ping = Message(sender="A", receiver="B", msg_type=MessageType.PING,
                   payload={}, size_bytes=0)
    buffer = bytearray(frame_message(ping) + b"\xff\xff\xff\xff")
    frames = split_frames(buffer)
    assert decode_message(next(frames)) == ping
    with pytest.raises(SerializationError):
        next(frames)
