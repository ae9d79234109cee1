"""A PUT reply's oracle dots reach the client through the write log.

``PUT_REPLY`` carries the mechanism's context only; the coordinator notes the
origin dots of the state it answers with in the shared
:class:`~repro.kvstore.write_log.WriteLog` under the reply's ``msg_id``, and
the client takes them back when it absorbs that reply.  One write can be
answered twice — a client failover re-sends it to a second coordinator, and a
duplicated ``COORDINATE_PUT`` is coordinated twice — from two different
states, so the dots must be those of exactly the reply the client absorbed.

The test captures, on its own side of the transport, the origin dots of the
coordinator's state at the moment each ``PUT_REPLY`` is sent, and compares
them with what the client's session holds after absorbing it, under
duplicate delivery, one dropped reply and one reply late enough that the
client fails over and both coordinators answer.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Tuple

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.core import Dot
from repro.kvstore import (
    AsyncClusterClient, AsyncioCluster, ClusterCore, SimulatedCluster)
from repro.network.message import Message, MessageType

KEYS = ("hot", "warm")
#: Longer than the client's failover deadline (75 ms on the simulator).
LATE_MS = 150.0


@pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "client_vv"])
def test_absorbed_put_reply_gets_the_dots_of_its_coordinators_state(
        mechanism_name, monkeypatch):
    cluster = SimulatedCluster(
        create(mechanism_name), server_ids=("A", "B", "C"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
        duplicate_probability=0.3, seed=7,
        anti_entropy_interval_ms=None, hint_replay_interval_ms=None)
    clients = [cluster.client(f"c{index}") for index in range(4)]
    transport = cluster.transport
    send = transport.send

    #: reply msg_id -> origin dots of its coordinator's state when sent
    noted: Dict[int, Tuple[Dot, ...]] = {}
    #: COORDINATE_PUT msg_id -> the write's origin dot
    writes: Dict[int, Dot] = {}
    #: reply msg_id -> (coordinator, the write's origin dot)
    replies: Dict[int, Tuple[str, Dot]] = {}
    dropped: List[Message] = []
    late: List[Message] = []

    def capturing(message: Message) -> None:
        if message.msg_type is MessageType.COORDINATE_PUT:
            writes[message.msg_id] = message.payload["sibling"].origin_dot
        elif message.msg_type is MessageType.PUT_REPLY:
            node = cluster.servers[message.sender].node
            noted[message.msg_id] = tuple(
                sibling.origin_dot
                for sibling in node.siblings_of(message.payload["key"]))
            dot = writes[message.request_id]
            first = all(other != dot for _, other in replies.values())
            replies[message.msg_id] = (message.sender, dot)
            # Fault the first answer to a write, which the client is still
            # waiting for, so that it fails over.
            if first and transport.now_ms() > 20.0:
                if not dropped:
                    dropped.append(message)
                    return
                if not late and message.receiver != dropped[0].receiver:
                    late.append(message)
                    cluster.simulation.schedule(LATE_MS, lambda: send(message))
                    return
        send(message)

    monkeypatch.setattr(transport, "send", capturing)

    #: (reply msg_id, read_dots the session absorbed), in absorption order
    absorbed: List[Tuple[int, Tuple[Dot, ...]]] = []
    delivered: List[int] = []
    for client in clients:
        protocol = client.protocol
        on_message = protocol.on_message

        def watching(message, now, protocol=protocol, on_message=on_message):
            before = len(protocol.records)
            effects = on_message(message, now)
            if message.msg_type is MessageType.PUT_REPLY:
                delivered.append(message.msg_id)
                if len(protocol.records) > before:
                    context = protocol.session.last_context(message.payload["key"])
                    absorbed.append((message.msg_id, context.read_dots))
            return effects

        monkeypatch.setattr(protocol, "on_message", watching)

    rng = random.Random(3)

    def issue(step: int) -> None:
        client, key = rng.choice(clients), rng.choice(KEYS)
        if rng.random() < 0.3:
            client.get(key)
        else:
            client.put(key, f"v{step}", use_context=rng.random() < 0.8)

    for step in range(120):
        cluster.simulation.schedule_at(2.0 * (step + 1),
                                       lambda step=step: issue(step))
    cluster.run(until=1500.0)

    # Every absorbed reply got exactly the dots of its coordinator's state.
    assert len(absorbed) > 50
    for msg_id, read_dots in absorbed:
        assert read_dots == noted[msg_id], msg_id
    assert any(len(read_dots) > 1 for _, read_dots in absorbed)

    # The faults happened as planned.
    assert len(delivered) > len(set(delivered))          # duplicate delivery
    absorbed_ids = {msg_id for msg_id, _ in absorbed}
    for message in dropped + late:
        assert message.msg_id not in absorbed_ids
        coordinator, dot = replies[message.msg_id]
        # The client failed over: another coordinator answered the same
        # write, and that is the reply it absorbed.
        assert any(other_dot == dot and other != coordinator
                   and other_id in absorbed_ids
                   for other_id, (other, other_dot) in replies.items())
    assert late[0].msg_id in delivered                   # both coordinators replied
    assert dropped[0].msg_id not in delivered

    # Taken replies are gone; only the dropped one is still noted.
    log = cluster.write_log
    assert log.take_reply(dropped[0].msg_id) == noted[dropped[0].msg_id]
    for msg_id in noted:
        assert log.take_reply(msg_id) == ()


def test_a_served_core_notes_no_dots_for_a_foreign_clients_replies():
    """A ``serve`` process hosts no client, so no reply's dots are ever taken
    from its log: it must not note them (one entry per PUT, forever)."""
    async def scenario():
        served = AsyncioCluster(create("dvv"), server_ids=("A", "B", "C"),
                                anti_entropy_interval_ms=None,
                                hint_replay_interval_ms=None)
        async with served:
            # The client's own process, as ``connect`` builds it: a bare core
            # describing the served cluster, with a write log of its own.
            core = ClusterCore(create("dvv"), served.server_ids, served.quorum)
            client = AsyncClusterClient("c1", core, served.address_book)
            await client.start()
            try:
                for step in range(6):
                    assert await client.put("cart", f"v{step}") is not None
                local = await served.client("c2")
                assert await local.put("cart", "local") is not None
            finally:
                await client.close()
            return served.write_log, core.write_log, len(served.write_log)

    served_log, client_log, writes = asyncio.run(scenario())
    assert writes == 7
    # The in-process client took its reply's dots; nothing else was noted.
    assert served_log._replies == {}
    assert client_log._replies == {}
