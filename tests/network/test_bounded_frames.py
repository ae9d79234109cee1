"""The paper's claim, read off real frames on real sockets.

Dotted version vectors keep causality metadata bounded by the replication
degree, so the frame that replicates a write must not grow with the number of
writes the key has seen, nor with its number of siblings, since a write
ships only its delta — while the causal-history baseline (Figure 1a) grows
with every write and client-id version vectors grow with every client.

Every size here is ``len(frame_message(message))`` as the asyncio transport
framed it for a Unix-domain socket — of a ``REPLICA_PUT``, and of the
``PUT_REPLY`` that acknowledges a write to a key with many siblings, which
carries the mechanism's context and nothing per sibling.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import List

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.network import asyncio_transport, message
from repro.network.message import MessageType
from repro.network.wire import decode_message

#: Writes issued before measuring, so that every counter that rides the frame
#: (the client's write sequence, the coordinator's per-key counter) stays in
#: the two-byte varint band (128..16383) for the whole measured run: equality
#: of frame *lengths* then means equality of metadata *entries*.
WARMUP_WRITES = 128


def _record_sizes(monkeypatch, msg_type: MessageType) -> List[int]:
    """Lengths of every ``msg_type`` frame the transport sends, in order."""
    sizes: List[int] = []
    frame_message = asyncio_transport.frame_message

    def recording(msg):
        frame = frame_message(msg)
        if msg.msg_type is msg_type:
            sizes.append(len(frame))
        return frame

    monkeypatch.setattr(asyncio_transport, "frame_message", recording)
    # Message ids are a process-wide sequence whose varint width would
    # otherwise depend on how many tests ran before this one.
    monkeypatch.setattr(message, "_message_ids", itertools.count(1 << 20))
    return sizes


@pytest.fixture
def replica_put_sizes(monkeypatch) -> List[int]:
    """Lengths of every REPLICA_PUT frame the transport sends, in order."""
    return _record_sizes(monkeypatch, MessageType.REPLICA_PUT)


@pytest.fixture
def put_reply_sizes(monkeypatch) -> List[int]:
    """Lengths of every PUT_REPLY frame the transport sends, in order."""
    return _record_sizes(monkeypatch, MessageType.PUT_REPLY)


def _cluster(mechanism_name: str) -> AsyncioCluster:
    """Three nodes, N=3, no background daemons, deadlines no test reaches."""
    return AsyncioCluster(
        create(mechanism_name), server_ids=("A", "B", "C"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
        anti_entropy_interval_ms=None, hint_replay_interval_ms=None,
        replica_timeout_ms=2000.0, request_timeout_ms=5000.0)


async def _read_modify_write(mechanism_name: str, writes: int,
                             client_ids: List[str],
                             sizes: List[int]) -> List[int]:
    """``writes`` GET-then-PUT rounds on one key, identities rotating.

    Returns the replication frame size of each write.
    """
    cluster = _cluster(mechanism_name)
    per_write: List[int] = []
    async with cluster:
        clients = [await cluster.client(client_id) for client_id in client_ids]
        for index in range(writes):
            client = clients[index % len(clients)]
            read = await client.get("cart")
            assert len(read.values) <= 1
            sent_before = len(sizes)
            # Fixed-width values: only metadata may change the frame length.
            written = await client.put("cart", f"v{index:06d}")
            assert written is not None
            assert len(sizes) > sent_before
            per_write.append(max(sizes[sent_before:]))
    return per_write


@pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset"])
def test_replication_frame_is_flat_under_dotted_version_vectors(
        mechanism_name, replica_put_sizes):
    frames = asyncio.run(_read_modify_write(
        mechanism_name, WARMUP_WRITES + 200, ["c1"], replica_put_sizes))
    measured = frames[WARMUP_WRITES:]
    assert measured[200 - 1] == measured[20 - 1]
    assert len(set(measured)) == 1


def test_replication_frame_grows_under_the_causal_history_mechanism(
        replica_put_sizes):
    frames = asyncio.run(_read_modify_write(
        "causal_history", 200, ["c1"], replica_put_sizes))
    # One more dot in the clock per write: at least 3 bytes each.
    assert frames[200 - 1] > frames[20 - 1] + 180 * 3
    assert all(later > earlier for earlier, later in zip(frames, frames[1:]))


def test_client_vv_frame_outgrows_dvv_with_rotating_client_ids(
        replica_put_sizes):
    client_ids = [f"client-{index:02d}" for index in range(32)]
    last = {}
    for mechanism_name in ("dvv", "client_vv"):
        frames = asyncio.run(_read_modify_write(
            mechanism_name, 64, client_ids, replica_put_sizes))
        last[mechanism_name] = frames[-1]
    # client_vv keeps one entry per client that ever wrote; dvv one per server.
    assert last["client_vv"] > last["dvv"] + 31 * len("client-00")


async def _blind_writes(mechanism_name: str, writers: int,
                        sizes: List[int]) -> List[int]:
    """One blind write per client, each concurrent with every other, to one
    key: after write ``i`` the key holds ``i + 1`` siblings.

    Returns the replication frame size of each write.
    """
    cluster = _cluster(mechanism_name)
    per_write: List[int] = []
    async with cluster:
        for index in range(writers):
            client = await cluster.client(f"client-{index:02d}")
            sent_before = len(sizes)
            written = await client.put("cart", f"v{index:06d}", use_context=False)
            assert written is not None
            per_write.append(max(sizes[sent_before:]))
        read = await client.get("cart")
        assert len(read.values) == writers
    return per_write


@pytest.mark.parametrize("mechanism_name", ["dvv", "client_vv"])
def test_replication_frame_does_not_grow_with_concurrent_siblings(
        mechanism_name, replica_put_sizes):
    """A write ships its delta: the new version, not the key's sibling set."""
    frames = asyncio.run(_blind_writes(mechanism_name, 20, replica_put_sizes))
    assert abs(frames[20 - 1] - frames[2 - 1]) <= 3


def test_replication_frame_grows_with_siblings_under_causal_history(
        replica_put_sizes):
    """A mechanism without a delta still ships every sibling on each write."""
    frames = asyncio.run(_blind_writes("causal_history", 20, replica_put_sizes))
    assert frames[20 - 1] > frames[2 - 1] + 18 * len("v000000")


async def _collapse_then_fork(mechanism_name: str, writers: int,
                              sizes: List[int]) -> List[int]:
    """The ``PUT_REPLY`` frame with ``writers`` siblings on the key, then with 2.

    ``writers`` clients write blind (``writers`` siblings); the first reads
    them all and writes over them (one sibling), and the second writes blind
    again (two).  Both measured replies answer a context that names every
    writer, so only the sibling count differs between them.
    """
    cluster = _cluster(mechanism_name)
    async with cluster:
        clients = [await cluster.client(f"client-{index:02d}")
                   for index in range(writers)]
        for index, client in enumerate(clients):
            assert await client.put("cart", f"v{index:06d}", use_context=False)
        many = sizes[-1]
        assert clients[-1].records[-1].sibling_count == writers
        read = await clients[0].get("cart")
        assert len(read.values) == writers
        assert await clients[0].put("cart", "merged")
        assert clients[0].records[-1].sibling_count == 1
        assert await clients[1].put("cart", "forked", use_context=False)
        assert clients[1].records[-1].sibling_count == 2
        return [many, sizes[-1]]


@pytest.mark.parametrize("mechanism_name", ["dvv", "client_vv"])
def test_put_reply_frame_does_not_grow_with_siblings(mechanism_name,
                                                     put_reply_sizes):
    """The acknowledgement carries the mechanism's context and no per-sibling
    field: the oracle's dots reach the client through the write log."""
    many, two = asyncio.run(_collapse_then_fork(mechanism_name, 30,
                                                put_reply_sizes))
    assert abs(many - two) <= 3


def test_put_reply_carries_no_sibling_bodies_and_no_dots(monkeypatch):
    """A write's acknowledgement must not grow with the *values* a hot key
    holds: the client needs its next context, and reads values with GET."""
    frames = {}
    frame_message = asyncio_transport.frame_message

    def recording(msg):
        frame = frame_message(msg)
        frames[msg.msg_type] = frame          # the last of each type
        return frame

    monkeypatch.setattr(asyncio_transport, "frame_message", recording)
    values = [f"value-{index:02d}-" + "x" * 54 for index in range(30)]

    async def scenario():
        cluster = _cluster("dvv")
        async with cluster:
            client = await cluster.client("c1")
            for value in values:              # blind writes: 30 siblings
                written = await client.put("cart", value, use_context=False)
                assert written.sibling.value == value
            read = await client.get("cart")
            assert sorted(read.values) == values
            return client.records[-2].sibling_count

    assert asyncio.run(scenario()) == 30
    put_reply = frames[MessageType.PUT_REPLY]
    get_reply = frames[MessageType.GET_REPLY]
    payload = decode_message(put_reply[4:]).payload
    assert sorted(payload) == ["context_bytes", "coordinator", "key",
                               "mechanism_context"]
    assert not any(value.encode() in put_reply for value in values)
    assert all(value.encode() in get_reply for value in values)
    assert len(put_reply) * 3 < len(get_reply)
