"""Since ``WIRE_VERSION`` 3, records are decoded at most once per receiving endpoint.

Clocks (``V W E X H``) and siblings (``G``) travel as ``tag · varint(length)
· body``; a decoder handed a :class:`~repro.network.wire.RecordTable` looks a
record's bytes up before parsing them.  Over ``test_wire_fuzz``'s recorded
corpus (every ``MessageType`` under every mechanism) this suite pins that

* a frame decodes to the same message cold (``records=None``), against an
  empty table and against a warm one — and a mutated frame to the same
  *outcome*, never to a stale object;
* a hit hands back the identical object, a sibling with a mutable value is
  never shared, and what was decoded is forwarded without re-encoding;
* the table stays within its bounds and belongs to one endpoint;
* the envelope's ``MessageType -> code`` table is exactly the one written
  below.
"""

from __future__ import annotations

import asyncio
from typing import Any, Iterator, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks import Sibling
from repro.clocks.vve import DottedVVE, VersionVectorWithExceptions
from repro.core import (
    CausalHistory,
    DVVSet,
    Dot,
    DottedVersionVector,
    SerializationError,
    VersionVector,
    codec,
)
from repro.kvstore.context import CausalContext
from repro.network.asyncio_transport import AsyncioEndpoint
from repro.network.message import Message, MessageType
from repro.network.wire import (
    TYPE_CODES,
    RecordTable,
    decode_message,
    encode_message,
    frame_message,
)

from test_wire_fuzz import _MUTATION, MECHANISMS, _mutate, corpus

RECORD_TYPES = (VersionVector, DottedVersionVector, VersionVectorWithExceptions,
                DottedVVE, CausalHistory, Sibling)


def _records_in(value: Any) -> Iterator[Any]:
    """Every record object reachable in a decoded payload, in wire order."""
    if isinstance(value, RECORD_TYPES):
        yield value
        if isinstance(value, Sibling):
            yield from _records_in(value.value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _records_in(key)
            yield from _records_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _records_in(item)
    elif isinstance(value, CausalContext):
        yield from _records_in(value.mechanism_context)
    elif isinstance(value, DVVSet):
        yield from _records_in(value.entries)
        yield from _records_in(value.anonymous)


def message_with(payload) -> Message:
    return Message(sender="A", receiver="B", msg_type=MessageType.REPLICA_PUT,
                   payload=payload, size_bytes=0)


# --------------------------------------------------------------------------- #
# Same message cold, against an empty table, against a warm one
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_corpus_decodes_the_same_cold_empty_and_warm(mechanism_name):
    warm = RecordTable()
    total = 0
    for message in corpus(mechanism_name):
        body = encode_message(message)
        assert decode_message(body, records=None) == message
        empty = RecordTable()
        assert decode_message(body, empty) == message
        first = decode_message(body, warm)
        hits = warm.hits
        second = decode_message(body, warm)
        assert first == second == message

        # Every record of the second pass came out of the table, as the very
        # object the first pass built.
        shared = list(_records_in(first.payload))
        again = list(_records_in(second.payload))
        assert len(shared) == len(again) == warm.hits - hits
        assert all(a is b for a, b in zip(shared, again))
        assert empty.hits + empty.misses == len(shared)
        total += len(shared)
    assert total > 0 and warm.hits >= total


@pytest.mark.parametrize("mechanism_name", MECHANISMS)
@pytest.mark.parametrize("make_table", [lambda: None, RecordTable],
                         ids=["cold", "table"])
def test_forwarding_a_decoded_message_re_encodes_nothing(mechanism_name,
                                                         make_table):
    for message in corpus(mechanism_name):
        body = encode_message(message)
        decoded = decode_message(body, make_table())
        codec.reset_codec_stats()
        assert encode_message(decoded) == body
        assert codec.codec_stats()["encode_misses"] == 0


def test_a_sibling_with_a_mutable_value_is_never_shared():
    held = Sibling(value=["milk"], origin_dot=Dot("c1", 1))
    plain = Sibling(value="milk", origin_dot=Dot("c1", 2))
    body = encode_message(message_with({"held": held, "plain": plain}))
    table = RecordTable()
    first = decode_message(body, table).payload
    second = decode_message(body, table).payload
    assert first == second == {"held": held, "plain": plain}
    assert first["held"] is not second["held"]
    assert first["held"].value is not second["held"].value
    assert first["plain"] is second["plain"]
    assert list(table.values()) == [first["plain"]]
    assert (table.hits, table.misses) == (1, 3)


# --------------------------------------------------------------------------- #
# Bounds and ownership
# --------------------------------------------------------------------------- #
def test_the_table_never_exceeds_its_bounds():
    count = RecordTable.MAX_RECORDS + 40
    vectors = [VersionVector({"A": index + 1}) for index in range(count)]
    # One record longer than the per-record limit: decoded, never kept.
    wide = VersionVector({f"client-{index:04d}": 1 for index in range(200)})
    body = encode_message(message_with({"vectors": vectors, "wide": wide}))
    table = RecordTable()
    for _ in range(2):
        decoded = decode_message(body, table).payload
        assert decoded == {"vectors": vectors, "wide": wide}
        assert 0 < len(table) <= RecordTable.MAX_RECORDS
    assert all(len(record) <= RecordTable.MAX_RECORD_BYTES for record in table)
    assert table.misses >= count            # `wide` is neither hit nor miss


def test_each_endpoint_owns_its_records(tmp_path):
    """Two endpoints in one process decoding the same frame both miss once."""
    book = {name: str(tmp_path / f"{name}.sock") for name in "ABC"}
    clock = DottedVersionVector(Dot("A", 2), VersionVector({"A": 1}))
    got: List[Message] = []

    async def scenario():
        endpoints = {name: AsyncioEndpoint(name, book, handler=got.append)
                     for name in "ABC"}
        for endpoint in endpoints.values():
            await endpoint.start()
        try:
            for round_ in (1, 2):
                for receiver in "BC":
                    endpoints["A"].send(Message(
                        sender="A", receiver=receiver,
                        msg_type=MessageType.REPLICA_PUT,
                        payload={"clock": clock}, size_bytes=1))
                deadline = asyncio.get_running_loop().time() + 2.0
                while len(got) < 2 * round_:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
            return {name: (e.stats.record_hits, e.stats.record_misses)
                    for name, e in endpoints.items()}
        finally:
            for endpoint in endpoints.values():
                await endpoint.close()

    assert asyncio.run(scenario()) == {"A": (0, 0), "B": (1, 1), "C": (1, 1)}
    by_receiver = {name: [m.payload["clock"] for m in got if m.receiver == name]
                   for name in "BC"}
    assert by_receiver["B"][0] is by_receiver["B"][1]
    assert by_receiver["B"][0] is not by_receiver["C"][0]
    assert by_receiver["B"][0] == by_receiver["C"][0] == clock


# --------------------------------------------------------------------------- #
# Mutated frames: the same outcome warm as cold
# --------------------------------------------------------------------------- #
def _outcome(body: bytes, records) -> Any:
    try:
        # repr, not ==: a mutation can mint a NaN, which is unequal to itself.
        return repr(decode_message(body, records))
    except SerializationError:
        return SerializationError


@pytest.mark.parametrize("mechanism_name", MECHANISMS)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_frames_have_the_same_outcome_warm_as_cold(mechanism_name, data):
    message = data.draw(st.sampled_from(corpus(mechanism_name)))
    mutations = data.draw(st.lists(_MUTATION, min_size=1, max_size=4))
    body = encode_message(message)
    mutated = _mutate(body, mutations)

    warm = RecordTable()
    decode_message(body, warm)          # holds every record of the original
    cold = _outcome(mutated, None)
    assert _outcome(mutated, warm) == cold
    assert _outcome(mutated, warm) == cold      # and again, now warmed by itself
    assert decode_message(body, warm) == message    # the table took no harm


# --------------------------------------------------------------------------- #
# The envelope's one-byte message type
# --------------------------------------------------------------------------- #
def test_message_type_codes_are_pinned():
    """Written out, not derived: adding an enum member cannot renumber."""
    assert {msg_type.value: code for msg_type, code in TYPE_CODES.items()} == {
        "coordinate_get": 1, "coordinate_put": 2, "get_reply": 3,
        "put_reply": 4, "error_reply": 5, "replica_get": 6,
        "replica_get_reply": 7, "replica_put": 8, "replica_put_ack": 9,
        "read_repair": 10,
        "merkle_partition_digests": 13, "merkle_partition_diff": 14,
        "merkle_sync_request": 15, "merkle_sync_response": 16,
        "merkle_key_states": 17, "hint_replay": 18, "hint_ack": 19,
        "key_handoff": 20, "ping": 21, "pong": 22,
    }
    assert set(TYPE_CODES) == set(MessageType)
    ping = Message(sender="A", receiver="B", msg_type=MessageType.PING,
                   payload={}, size_bytes=0)
    assert frame_message(ping)[4:6] == bytes([4, 21])
    body = bytearray(encode_message(ping))
    # 11 and 12 are retired (the full-state exchange), never reused.
    for unknown in (0, 11, 12, 23, 255):
        body[1] = unknown
        with pytest.raises(SerializationError):
            decode_message(bytes(body))
