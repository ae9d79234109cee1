"""Mutation fuzz of the version-3 wire codec.

The corpus is real traffic: for every registered mechanism, two eventful
simulated-cluster runs (node failure with hinted handoff, a join with key
handoff, Merkle anti-entropy, a stale replica that gets read
repaired, an unreachable quorum) are recorded off the transport, so every
``MessageType`` appears with the payload shape the protocol really sends and
with that mechanism's own states and contexts inside.  ``PING``/``PONG`` have
no sender in the protocol and are built by hand.

What is asserted:

* unmutated frames round-trip exactly;
* whatever bytes arrive, :func:`decode_message` and :func:`split_frames` — the
  splitter an endpoint's ``data_received`` cuts frames with — either decode
  them or raise :class:`SerializationError` — no other exception, and no
  input makes them spin;
* the correctness oracle is off the wire: only the ``causal_history``
  *mechanism* ever puts a causal history (an ``H`` record) in a frame.
"""

from __future__ import annotations

import functools
import random
import struct
import time
from typing import Any, Dict, Iterator, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks import Sibling, available, create
from repro.cluster import QuorumConfig
from repro.core import CausalHistory, DVVSet, SerializationError
from repro.kvstore import SimulatedCluster
from repro.kvstore.context import CausalContext
from repro.network.message import Message, MessageType
from repro.network.wire import (
    WIRE_VERSION,
    decode_message,
    encode_message,
    frame_message,
    split_frames,
)

MECHANISMS = sorted(available())


# --------------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------------- #
def _churn_traffic(mechanism_name: str) -> List[Message]:
    """Failure + hints + join + anti-entropy under mixed client traffic."""
    cluster = SimulatedCluster(
        create(mechanism_name), server_ids=("A", "B", "C", "D"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True), seed=7,
        request_mode="async", anti_entropy_interval_ms=40.0,
        hint_replay_interval_ms=25.0)
    cluster.transport.trace_enabled = True
    rng = random.Random(3)
    clients = [cluster.client(f"c{index}") for index in range(3)]
    keys = ["cart", "user", "inv"]

    def issue(index: int) -> None:
        client, key = clients[index % 3], keys[rng.randrange(3)]
        if rng.random() < 0.6:
            client.put(key, f"v{index}", use_context=rng.random() < 0.7)
        else:
            client.get(key)

    for index in range(40):
        cluster.simulation.schedule_at(3.0 * (index + 1),
                                       lambda index=index: issue(index))
    cluster.simulation.schedule_at(30.0, lambda: cluster.fail_node("B"))
    cluster.simulation.schedule_at(80.0, lambda: cluster.recover_node("B"))
    cluster.simulation.run(until=200.0)
    cluster.join_node("E")
    cluster.run(until=300.0)
    cluster.converge()
    return cluster.transport.trace


def _repair_and_error_traffic(mechanism_name: str) -> List[Message]:
    """A replica misses a write and is read-repaired; then a quorum fails."""
    cluster = SimulatedCluster(
        create(mechanism_name), server_ids=("A", "B", "C"),
        quorum=QuorumConfig(n=3, r=3, w=1), seed=5, request_mode="async",
        anti_entropy_interval_ms=None, hint_replay_interval_ms=None)
    cluster.transport.trace_enabled = True
    client = cluster.client("c0")
    coordinator = cluster.placement.extended_preference_list("k")[0]
    others = [node for node in ("A", "B", "C") if node != coordinator]
    cluster.partitions.cut_link(coordinator, others[0])
    client.put("k", "v1")
    cluster.run(until=100.0)
    cluster.partitions.restore_link(coordinator, others[0])
    client.get("k")                       # R=3 notices the stale replica
    cluster.run(until=200.0)
    for other in others:
        cluster.partitions.cut_link(coordinator, other)
    client.get("k")                       # R=3 is unreachable
    cluster.run(until=400.0)
    return cluster.transport.trace


@functools.lru_cache(maxsize=None)
def corpus(mechanism_name: str) -> Tuple[Message, ...]:
    """Per message type, the smallest and the largest message observed."""
    messages = (_churn_traffic(mechanism_name)
                + _repair_and_error_traffic(mechanism_name))
    ping = Message(sender="A", receiver="B", msg_type=MessageType.PING,
                   payload={}, size_bytes=8)
    messages += [ping, ping.reply(MessageType.PONG, size_bytes=8)]
    by_type: Dict[MessageType, List[Message]] = {}
    for message in messages:
        by_type.setdefault(message.msg_type, []).append(message)
    picked: List[Message] = []
    for msg_type in MessageType:
        sized = sorted(by_type.get(msg_type, ()),
                       key=lambda m: len(encode_message(m)))
        picked += sized[:1] + sized[-1:]
    return tuple(picked)


def _histories_in(value: Any) -> Iterator[CausalHistory]:
    """Every causal history reachable inside a decoded payload."""
    if isinstance(value, CausalHistory):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _histories_in(key)
            yield from _histories_in(item)
    elif isinstance(value, (list, tuple, frozenset)):
        for item in value:
            yield from _histories_in(item)
    elif isinstance(value, Sibling):
        yield from _histories_in(value.value)
    elif isinstance(value, CausalContext):
        yield from _histories_in(value.mechanism_context)
    elif isinstance(value, DVVSet):
        yield from _histories_in(value.entries)
        yield from _histories_in(value.anonymous)


# --------------------------------------------------------------------------- #
# Unmutated frames
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_corpus_covers_every_message_type_and_round_trips(mechanism_name):
    messages = corpus(mechanism_name)
    assert {m.msg_type for m in messages} == set(MessageType)
    for message in messages:
        frame = frame_message(message)
        buffer = bytearray(frame)
        assert [decode_message(body) for body in split_frames(buffer)] == [message]
        assert buffer == b""
        assert frame[4] == WIRE_VERSION == 3


@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_only_the_causal_history_mechanism_puts_histories_on_the_wire(
        mechanism_name):
    carried = [
        history
        for message in corpus(mechanism_name)
        for history in _histories_in(decode_message(encode_message(message)).payload)
    ]
    if mechanism_name == "causal_history":
        assert carried, "the Figure 1a baseline must still ship its clocks"
    else:
        assert carried == []


# --------------------------------------------------------------------------- #
# Mutated frames
# --------------------------------------------------------------------------- #
_MUTATION = st.tuples(
    st.sampled_from(["flip", "set", "insert", "delete", "truncate", "repeat"]),
    st.integers(min_value=0, max_value=1 << 20),   # position (mod length)
    st.integers(min_value=0, max_value=255),       # byte / bit / run length
)


def _mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for kind, position, byte in mutations:
        at = position % (len(out) + 1)
        if kind == "insert":
            out.insert(at, byte)
        elif kind == "repeat":
            out[at:at] = bytes([byte]) * (byte + 1)
        elif not out:
            continue
        elif kind == "truncate":
            del out[at:]
        else:
            at %= len(out)
            if kind == "flip":
                out[at] ^= 1 << (byte % 8)
            elif kind == "set":
                out[at] = byte
            else:
                del out[at]
    return bytes(out)


@pytest.mark.parametrize("mechanism_name", MECHANISMS)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_bytes_decode_or_raise_serialization_error(mechanism_name, data):
    message = data.draw(st.sampled_from(corpus(mechanism_name)))
    mutations = data.draw(st.lists(_MUTATION, min_size=1, max_size=4))
    frame = _mutate(frame_message(message), mutations)

    try:
        decoded = decode_message(frame[4:])
    except SerializationError:
        pass
    else:
        assert isinstance(decoded, Message)

    buffer = bytearray(frame)
    try:
        for body in split_frames(buffer):
            assert isinstance(decode_message(body), Message)
    except SerializationError:
        pass
    assert frame.endswith(bytes(buffer))    # what is left is a frame's start


def _body(payload_bytes: bytes) -> bytes:
    """A frame body whose envelope is valid and whose payload is ``payload_bytes``."""
    empty = encode_message(Message(sender="A", receiver="B",
                                   msg_type=MessageType.PING, payload={},
                                   size_bytes=0, msg_id=1))
    assert empty.endswith(b"d\x00")
    return empty[:-2] + payload_bytes


@pytest.mark.parametrize("payload_bytes", [
    b"s\x02\xff\xfe",                       # invalid UTF-8 in a string
    b"D\x01A\x00",                          # dot with counter 0
    b"W\x01A\x00V\x00",                     # dvv whose dot is invalid
    b"d\x01l\x00N",                         # unhashable dict key
    b"z\x01l\x00",                          # unhashable set member
    b"i" + b"\xff" * 11 + b"\x01",          # varint longer than 10 bytes
], ids=["utf8", "dot", "dvv", "dict-key", "set-member", "varint"])
def test_constructor_and_type_errors_surface_as_serialization_error(payload_bytes):
    with pytest.raises(SerializationError):
        decode_message(_body(payload_bytes))


_EDGE_INTEGERS = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**69 - 1, 2**69]


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.sampled_from(_EDGE_INTEGERS), st.integers(),
                       st.integers(min_value=-(2**72), max_value=2**72)))
def test_an_integer_round_trips_to_itself_or_is_refused_at_encode_time(value):
    """Nothing is encodable that does not decode to the same number."""
    message = Message(sender="A", receiver="B", msg_type=MessageType.PING,
                      payload={"x": value}, size_bytes=0, msg_id=1)
    try:
        encoded = encode_message(message)
    except SerializationError:
        assert not -(2**63) <= value < 2**69
        return
    assert decode_message(encoded).payload == {"x": value}


def test_hostile_lengths_and_nesting_fail_fast():
    started = time.perf_counter()
    # A megabyte of varint continuation bytes: uncapped, the decoder builds a
    # multi-megabit integer one shift at a time (minutes of work).
    with pytest.raises(SerializationError):
        decode_message(_body(b"i" + b"\xff" * (1 << 20)))
    # Nesting far past the interpreter's recursion limit.
    with pytest.raises(SerializationError):
        decode_message(_body(b"l\x01" * 100_000 + b"N"))
    # An element count no frame could hold fails on the first missing element.
    with pytest.raises(SerializationError):
        decode_message(_body(b"l" + b"\xff" * 9 + b"\x01"))
    # A length prefix past MAX_FRAME_BYTES is refused before any buffering.
    with pytest.raises(SerializationError):
        list(split_frames(bytearray(struct.pack(">I", 0xFFFFFFFF) + b"x")))
    assert time.perf_counter() - started < 5.0
