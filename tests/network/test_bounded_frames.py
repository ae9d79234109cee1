"""The paper's claim, read off real frames on real sockets.

Dotted version vectors keep causality metadata bounded by the replication
degree, so the frame that replicates a write must not grow with the number of
writes the key has seen — while the causal-history baseline (Figure 1a) grows
with every write and client-id version vectors grow with every client.

Every size here is ``len(frame_message(message))`` as the asyncio transport
framed it for a Unix-domain socket — of a ``REPLICA_PUT``, and of the
``PUT_REPLY`` that acknowledges a write to a key with many siblings.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import List

import pytest

from repro.clocks import create, interface
from repro.cluster import QuorumConfig
from repro.core import Dot
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.network import asyncio_transport, message
from repro.network.message import MessageType
from repro.network.wire import decode_message

#: Writes issued before measuring, so that every counter that rides the frame
#: (the client's write sequence, the coordinator's per-key counter) stays in
#: the two-byte varint band (128..16383) for the whole measured run: equality
#: of frame *lengths* then means equality of metadata *entries*.
WARMUP_WRITES = 128


@pytest.fixture
def replica_put_sizes(monkeypatch) -> List[int]:
    """Lengths of every REPLICA_PUT frame the transport sends, in order."""
    sizes: List[int] = []
    frame_message = asyncio_transport.frame_message

    def recording(msg):
        frame = frame_message(msg)
        if msg.msg_type is MessageType.REPLICA_PUT:
            sizes.append(len(frame))
        return frame

    monkeypatch.setattr(asyncio_transport, "frame_message", recording)
    # Message ids and sibling uids are process-wide sequences whose varint
    # width would otherwise depend on how many tests ran before this one.
    monkeypatch.setattr(message, "_message_ids", itertools.count(1 << 20))
    monkeypatch.setattr(interface, "_sibling_ids", itertools.count(1 << 20))
    return sizes


async def _read_modify_write(mechanism_name: str, writes: int,
                             client_ids: List[str],
                             sizes: List[int]) -> List[int]:
    """``writes`` GET-then-PUT rounds on one key, identities rotating.

    Returns the replication frame size of each write.
    """
    cluster = AsyncioCluster(
        create(mechanism_name), server_ids=("A", "B", "C"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
        anti_entropy_interval_ms=None, hint_replay_interval_ms=None,
        replica_timeout_ms=2000.0, request_timeout_ms=5000.0)
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


def test_put_reply_carries_origin_dots_not_sibling_bodies(monkeypatch):
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
        cluster = AsyncioCluster(
            create("dvv"), server_ids=("A", "B", "C"),
            quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
            anti_entropy_interval_ms=None, hint_replay_interval_ms=None,
            replica_timeout_ms=2000.0, request_timeout_ms=5000.0)
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
                               "mechanism_context", "read_dots"]
    assert len(payload["read_dots"]) == 30
    assert all(isinstance(dot, Dot) for dot in payload["read_dots"])
    assert not any(value.encode() in put_reply for value in values)
    assert all(value.encode() in get_reply for value in values)
    assert len(put_reply) * 3 < len(get_reply)
