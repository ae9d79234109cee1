"""Direct-drive tests: scripted messages and timers through the state machines.

No transport, no event loop, no simulator — each test builds a
:class:`~repro.kvstore.protocol.node.ProtocolNode` over a bare
:class:`~repro.kvstore.cluster_core.ClusterCore` as its env, hands it decoded
messages and fired timer ids, and asserts on the effect lists it returns.
This pins the coordinator's quorum transitions, the sloppy fallback
promotion with its hint chain, the error replies, and the client machine's
failover walk — the behaviors the equivalence suite checks end-to-end — at
the machine boundary where each decision is a visible effect.
"""

from __future__ import annotations

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.cluster.topology import Topology
from repro.kvstore import ClusterCore
from repro.kvstore.client import ClientSession
from repro.kvstore.protocol import ClientProtocol, ProtocolNode
from repro.kvstore.protocol.effects import ClearTimer, Send, SetTimer
from repro.kvstore.protocol.env import REQUEST_OVERHEAD_BYTES
from repro.network.message import Message, MessageType

SERVER_IDS = ("A", "B", "C", "D", "E")


def build_env(sloppy: bool = True, topology=None) -> ClusterCore:
    return ClusterCore(create("dvv"), SERVER_IDS,
                       QuorumConfig(n=3, r=2, w=2, sloppy=sloppy),
                       partition_count=16, topology=topology)


def coordinate_put(env, key: str = "cart", value: str = "beer",
                   client_id: str = "c1") -> Message:
    """A COORDINATE_PUT message as the client machine would send it."""
    sibling = ClientSession(client_id).prepare_write(key, value)
    return Message(
        sender=f"client:{client_id}",
        receiver=env.placement.primary_replicas(key)[0],
        msg_type=MessageType.COORDINATE_PUT,
        payload={"key": key, "sibling": sibling, "context": None,
                 "client_id": client_id},
        size_bytes=REQUEST_OVERHEAD_BYTES,
    )


def coordinate_get(env, key: str = "cart", client_id: str = "c1") -> Message:
    return Message(
        sender=f"client:{client_id}",
        receiver=env.placement.primary_replicas(key)[0],
        msg_type=MessageType.COORDINATE_GET,
        payload={"key": key},
        size_bytes=REQUEST_OVERHEAD_BYTES,
    )


def sends(effects, msg_type=None):
    messages = [e.message for e in effects if isinstance(e, Send)]
    if msg_type is not None:
        messages = [m for m in messages if m.msg_type is msg_type]
    return messages


def set_timers(effects):
    return [e for e in effects if isinstance(e, SetTimer)]


def cleared(effects):
    return [e.timer_id for e in effects if isinstance(e, ClearTimer)]


# --------------------------------------------------------------------------- #
# Coordinator: async PUT quorum transitions
# --------------------------------------------------------------------------- #
def test_async_put_fans_out_and_arms_deadlines():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)

    effects = node.on_message(coordinate_put(env, key), now=0.0)

    replica_puts = sends(effects, MessageType.REPLICA_PUT)
    assert sorted(m.receiver for m in replica_puts) == sorted(primaries[1:])
    timers = {t.timer_id for t in set_timers(effects)}
    coordination_id = replica_puts[0].payload["coordination_id"]
    for replica_id in primaries[1:]:
        assert ("replica", coordination_id, replica_id) in timers
    assert ("request", coordination_id) in timers
    # W=2, only the local ack so far: no reply to the client yet.
    assert not sends(effects, MessageType.PUT_REPLY)
    assert not sends(effects, MessageType.ERROR_REPLY)


def test_async_put_answers_client_on_w_acks_but_keeps_straggler_deadline():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_put(env, key), now=0.0)
    coordination_id = sends(fanout, MessageType.REPLICA_PUT)[0].payload["coordination_id"]

    effects = node.on_message(Message(
        sender=primaries[1], receiver=primaries[0],
        msg_type=MessageType.REPLICA_PUT_ACK,
        payload={"coordination_id": coordination_id},
        size_bytes=0,
    ), now=1.0)

    replies = sends(effects, MessageType.PUT_REPLY)
    assert len(replies) == 1
    assert replies[0].receiver == "client:c1"
    assert replies[0].payload["coordinator"] == primaries[0]
    # The acker's deadline and the overall request deadline are disarmed...
    assert ("replica", coordination_id, primaries[1]) in cleared(effects)
    assert ("request", coordination_id) in cleared(effects)
    # ...but the still-outstanding primary keeps its deadline armed (Dynamo
    # keeps pushing the write toward all N homes after answering the client).
    assert ("replica", coordination_id, primaries[2]) not in cleared(effects)
    assert coordination_id in node.coordinator.sessions


def test_duplicate_ack_is_ignored():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_put(env, key), now=0.0)
    coordination_id = sends(fanout, MessageType.REPLICA_PUT)[0].payload["coordination_id"]
    ack = Message(sender=primaries[1], receiver=primaries[0],
                  msg_type=MessageType.REPLICA_PUT_ACK,
                  payload={"coordination_id": coordination_id}, size_bytes=0)
    first = node.on_message(ack, now=1.0)
    assert sends(first, MessageType.PUT_REPLY)

    duplicate = node.on_message(Message(
        sender=primaries[1], receiver=primaries[0],
        msg_type=MessageType.REPLICA_PUT_ACK,
        payload={"coordination_id": coordination_id}, size_bytes=0), now=2.0)
    assert duplicate == []


# --------------------------------------------------------------------------- #
# Coordinator: sloppy fallback promotion and hint chains
# --------------------------------------------------------------------------- #
def test_replica_deadline_promotes_fallback_with_hint_chain():
    env = build_env(sloppy=True)
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_put(env, key), now=0.0)
    coordination_id = sends(fanout, MessageType.REPLICA_PUT)[0].payload["coordination_id"]
    late = primaries[1]

    effects = node.on_timer(("replica", coordination_id, late),
                            now=env.replica_timeout_ms)

    promoted = sends(effects, MessageType.REPLICA_PUT)
    assert len(promoted) == 1
    fallback = promoted[0].receiver
    assert fallback not in primaries
    # The fallback's write carries the hint naming the primary it stands in
    # for, and gets its own ack deadline.
    assert promoted[0].payload["hint_for"] == late
    assert ("replica", coordination_id, fallback) in {
        t.timer_id for t in set_timers(effects)}
    session = node.coordinator.sessions[coordination_id]
    assert session.standing_in[fallback] == late


def test_fallback_timeout_chains_to_original_primary():
    """A fallback that also times out hints for the *primary*, not itself."""
    env = build_env(sloppy=True)
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_put(env, key), now=0.0)
    coordination_id = sends(fanout, MessageType.REPLICA_PUT)[0].payload["coordination_id"]
    late = primaries[1]
    first = node.on_timer(("replica", coordination_id, late), now=10.0)
    fallback = sends(first, MessageType.REPLICA_PUT)[0].receiver

    second = node.on_timer(("replica", coordination_id, fallback), now=20.0)

    next_try = sends(second, MessageType.REPLICA_PUT)
    assert len(next_try) == 1
    assert next_try[0].payload["hint_for"] == late
    assert next_try[0].receiver not in (late, fallback)


def test_strict_quorum_fails_with_quorum_unreachable():
    env = build_env(sloppy=False)
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_put(env, key), now=0.0)
    coordination_id = sends(fanout, MessageType.REPLICA_PUT)[0].payload["coordination_id"]

    # First primary missing its deadline leaves W=2 still feasible (local ack
    # + one armed deadline) — no error yet, and no sloppy extension.
    first = node.on_timer(("replica", coordination_id, primaries[1]), now=10.0)
    assert not sends(first, MessageType.REPLICA_PUT)
    assert not sends(first, MessageType.ERROR_REPLY)
    # The write is still held for the unreachable primary as a local hint.
    assert primaries[1] in node.store.hint_targets()

    # Second deadline makes the quorum infeasible: ERROR_REPLY to the client.
    second = node.on_timer(("replica", coordination_id, primaries[2]), now=20.0)
    errors = sends(second, MessageType.ERROR_REPLY)
    assert len(errors) == 1
    assert errors[0].payload["reason"] == "quorum_unreachable"
    assert errors[0].receiver == "client:c1"
    assert coordination_id not in node.coordinator.sessions


def test_request_deadline_fails_request_and_sweeps_timers():
    env = build_env(sloppy=True)
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_get(env, key), now=0.0)
    coordination_id = sends(fanout, MessageType.REPLICA_GET)[0].payload["coordination_id"]

    effects = node.on_timer(("request", coordination_id),
                            now=env.request_timeout_ms)

    errors = sends(effects, MessageType.ERROR_REPLY)
    assert len(errors) == 1
    assert errors[0].payload["reason"] == "request_timeout"
    # Every still-armed timer is swept alongside the failure: the one
    # asked replica's deadline and the hedge that would ask the other.
    swept = cleared(effects)
    assert ("replica", coordination_id, primaries[1]) in swept
    assert ("hedge", coordination_id) in swept
    assert coordination_id not in node.coordinator.sessions


# --------------------------------------------------------------------------- #
# Coordinator: async GET
# --------------------------------------------------------------------------- #
def test_async_get_reaches_r_and_replies():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_get(env, key), now=0.0)
    gets = sends(fanout, MessageType.REPLICA_GET)
    # R=2 and the local reply is one: one remote primary is asked.
    assert [m.receiver for m in gets] == primaries[1:2]
    coordination_id = gets[0].payload["coordination_id"]
    assert not sends(fanout, MessageType.GET_REPLY)

    effects = node.on_message(Message(
        sender=primaries[1], receiver=primaries[0],
        msg_type=MessageType.REPLICA_GET_REPLY,
        payload={"coordination_id": coordination_id, "state": ()},
        size_bytes=0,
    ), now=1.0)

    replies = sends(effects, MessageType.GET_REPLY)
    assert len(replies) == 1
    assert replies[0].payload["key"] == key
    assert replies[0].payload["siblings"] == []       # nothing stored anywhere


def replica_get_reply(sender: str, receiver: str, coordination_id: int) -> Message:
    return Message(sender=sender, receiver=receiver,
                   msg_type=MessageType.REPLICA_GET_REPLY,
                   payload={"coordination_id": coordination_id, "state": ()},
                   size_bytes=0)


def test_healthy_get_asks_what_r_lacks_and_arms_one_hedge():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)

    effects = node.on_message(coordinate_get(env, key), now=0.0)

    session = next(iter(node.coordinator.sessions.values()))
    gets = sends(effects, MessageType.REPLICA_GET)
    assert len(gets) == session.needed - 1
    assert session.reserve == primaries[2:]
    hedges = [t for t in set_timers(effects) if t.timer_id[0] == "hedge"]
    assert len(hedges) == 1
    # No EWMA for the asked replica yet: the hedge waits the floor, and it
    # is scheduled work, not a failure-detection deadline.
    assert hedges[0].delay_ms == env.deadline_floor_ms
    assert hedges[0].kind == "task"

    # With an EWMA the hedge waits twice the replica's usual round trip...
    node.latency.ewma[primaries[1]] = 3.0
    effects = node.on_message(coordinate_get(env, key), now=1.0)
    assert [t.delay_ms for t in set_timers(effects)
            if t.timer_id[0] == "hedge"] == [6.0]
    # ...and is not armed at all when its own deadline would fire first.
    node.latency.ewma[primaries[1]] = env.replica_timeout_ms
    effects = node.on_message(coordinate_get(env, key), now=2.0)
    assert not [t for t in set_timers(effects) if t.timer_id[0] == "hedge"]


def multi_dc_get_setup():
    """A coordinator whose same-DC neighbour is a non-primary, and a key whose
    one cross-DC primary is left in the reserve."""
    topology = Topology.striped(SERVER_IDS, ["east", "west"])
    env = build_env(topology=topology)
    for index in range(200):
        key = f"key-{index}"
        primaries = env.placement.primary_replicas(key)
        home = topology.dc_of(primaries[0])
        remote = [p for p in primaries[1:] if topology.dc_of(p) != home]
        near_spares = [n for n in topology.nodes_in(home) if n not in primaries]
        if len(remote) == 1 and near_spares:
            return env, key, primaries, remote[0], near_spares
    raise AssertionError("no key with that placement")


def test_hedge_asks_the_reserve_before_any_fallback():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    node.on_message(coordinate_get(env, key), now=0.0)
    coordination_id = next(iter(node.coordinator.sessions))

    effects = node.on_timer(("hedge", coordination_id), now=env.deadline_floor_ms)

    assert [m.receiver for m in sends(effects)] == [primaries[2]]
    assert node.coordinator.read_hedges == 1
    assert node.coordinator.reserve_contacts == 1
    assert node.coordinator.sessions[coordination_id].reserve == []


def test_hedge_on_a_multi_dc_topology_asks_the_cross_dc_primary():
    """``fallbacks_for(near=...)`` would rank the same-DC non-primary ahead
    of the untried cross-DC primary; the hedge asks the primary."""
    env, key, primaries, cross_dc, near_spares = multi_dc_get_setup()
    node = ProtocolNode(primaries[0], env.mechanism, env)
    assert env.placement.fallbacks_for(
        key, exclude=[p for p in primaries if p != cross_dc],
        near=node.node_id)[0] in near_spares

    fanout = node.on_message(coordinate_get(env, key), now=0.0)
    coordination_id = next(iter(node.coordinator.sessions))
    # The same-DC primary is asked first; the cross-DC one is the reserve.
    assert [m.receiver for m in sends(fanout)] == [
        p for p in primaries[1:] if p != cross_dc]

    effects = node.on_timer(("hedge", coordination_id), now=2.0)

    assert [m.receiver for m in sends(effects)] == [cross_dc]


def test_replica_deadline_with_reserve_left_asks_the_reserve_first():
    env, key, primaries, cross_dc, near_spares = multi_dc_get_setup()
    node = ProtocolNode(primaries[0], env.mechanism, env)
    fanout = node.on_message(coordinate_get(env, key), now=0.0)
    asked = sends(fanout, MessageType.REPLICA_GET)[0]
    coordination_id = asked.payload["coordination_id"]

    effects = node.on_timer(("replica", coordination_id, asked.receiver),
                            now=env.replica_timeout_ms)

    contacted = [m.receiver for m in sends(effects, MessageType.REPLICA_GET)]
    # The untried primary goes first; the late one's stand-in comes after
    # and is a non-primary, as it always was.
    assert contacted[0] == cross_dc
    assert all(r not in primaries for r in contacted[1:])
    # The reserve is used up, so the hedge has nothing left to ask.
    assert ("hedge", coordination_id) in cleared(effects)
    assert node.coordinator.read_hedges == 0
    assert node.coordinator.reserve_contacts == 1


def test_late_reply_after_quorum_emits_nothing():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)
    node.on_message(coordinate_get(env, key), now=0.0)
    coordination_id = next(iter(node.coordinator.sessions))
    node.on_timer(("hedge", coordination_id), now=2.0)     # both now asked

    first = node.on_message(
        replica_get_reply(primaries[2], primaries[0], coordination_id), now=3.0)
    assert sends(first, MessageType.GET_REPLY)
    assert ("replica", coordination_id, primaries[1]) in cleared(first)

    late = node.on_message(
        replica_get_reply(primaries[1], primaries[0], coordination_id), now=4.0)
    assert late == []
    assert node.on_timer(("hedge", coordination_id), now=5.0) == []


def test_suspected_primary_ranks_last_until_its_next_ack():
    env = build_env()
    key = "cart"
    primaries = env.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], env.mechanism, env)

    def first_asked(now: float) -> str:
        effects = node.on_message(coordinate_get(env, key), now=now)
        return sends(effects, MessageType.REPLICA_GET)[0].receiver

    assert first_asked(0.0) == primaries[1]
    slow_session = next(iter(node.coordinator.sessions))
    node.on_timer(("replica", slow_session, primaries[1]), now=10.0)
    assert node.latency.suspected == {primaries[1]}
    assert first_asked(11.0) == primaries[2]

    # Its (late) reply is an ack: it is no longer suspected.
    node.on_message(replica_get_reply(primaries[1], primaries[0], slow_session),
                    now=12.0)
    assert node.latency.suspected == set()
    assert first_asked(13.0) == primaries[1]

    # A crash forgets suspicion along with every other latency estimate.
    node.latency.suspect(primaries[1])
    assert first_asked(14.0) == primaries[2]
    node.on_recover(wipe=False)
    assert node.latency.suspected == set()
    assert first_asked(15.0) == primaries[1]


# --------------------------------------------------------------------------- #
# Client machine: failover walk and exhaustion
# --------------------------------------------------------------------------- #
def test_client_failover_walks_candidates_then_gives_up():
    env = build_env()
    client = ClientProtocol("c1", env)
    outcomes = []
    key = "cart"
    candidates = env.placement.extended_preference_list(key)

    effects = client.get(key, outcomes.append, now=0.0)
    first = sends(effects)
    assert len(first) == 1
    assert first[0].receiver == candidates[0]
    request_id = first[0].msg_id
    assert {t.timer_id for t in set_timers(effects)} == {("client", request_id)}

    # Walk the failover chain: each deadline re-sends the same logical
    # request to the next candidate and re-arms the client deadline.
    for attempt, expected in enumerate(candidates[1:], start=1):
        effects = client.on_timer(("client", request_id), now=10.0 * attempt)
        resent = sends(effects)
        assert len(resent) == 1
        assert resent[0].receiver == expected
        assert resent[0].msg_type is MessageType.COORDINATE_GET
        request_id = resent[0].msg_id
        assert outcomes == []

    # Exhausting the list fails the request: callback(None), ok=False record.
    effects = client.on_timer(("client", request_id), now=999.0)
    assert sends(effects) == []
    assert outcomes == [None]
    assert len(client.records) == 1
    assert not client.records[0].ok
    assert client.records[0].error == "timeout"


def test_client_error_reply_fails_fast():
    env = build_env()
    client = ClientProtocol("c1", env)
    outcomes = []
    effects = client.put("cart", "beer", outcomes.append, now=0.0)
    request = sends(effects)[0]

    effects = client.on_message(Message(
        sender=request.receiver, receiver=client.address,
        msg_type=MessageType.ERROR_REPLY,
        payload={"key": "cart", "operation": "put",
                 "reason": "quorum_unreachable", "coordinator": request.receiver},
        size_bytes=0, request_id=request.msg_id,
    ), now=5.0)

    assert ("client", request.msg_id) in cleared(effects)
    assert outcomes == [None]
    record = client.records[0]
    assert record.error == "quorum_unreachable"
    assert record.coordinator == request.receiver


# --------------------------------------------------------------------------- #
# Merkle exchange: what comes back after MERKLE_KEY_STATES (the reply rule)
# --------------------------------------------------------------------------- #
def write(node, client: ClientSession, key: str, value: str) -> None:
    """A client write coordinated by ``node`` (read, then put with context)."""
    context = client.absorb_read(key, node.store.local_read(key),
                                 node.mechanism.name)
    node.store.local_write(key, context, client.prepare_write(key, value),
                           client.client_id)


def replicate(source, target, key: str) -> None:
    target.store.local_merge(key, source.store.state_of(key))


def merkle_pair():
    env = build_env()
    return env, ProtocolNode("A", env.mechanism, env), ProtocolNode("B", env.mechanism, env)


def run_exchange(source, target):
    """Drive one exchange started by ``source`` to quiescence.

    Returns every message delivered, in delivery order.
    """
    nodes = {source.node_id: source, target.node_id: target}
    queue = sends(source.start_merkle_sync_with(target.node_id, now=0.0))
    delivered = []
    while queue:
        message = queue.pop(0)
        delivered.append(message)
        queue.extend(sends(nodes[message.receiver].on_message(message, now=0.0)))
    return delivered


def key_states_to(messages, receiver_id):
    return [m for m in messages if m.msg_type is MessageType.MERKLE_KEY_STATES
            and m.receiver == receiver_id]


def test_empty_receiver_mails_nothing_back():
    env, donor, victim = merkle_pair()
    writer = ClientSession("w")
    keys = [f"key-{index}" for index in range(40)]
    for key in keys:
        write(donor, writer, key, "v")

    messages = run_exchange(donor, victim)

    assert key_states_to(messages, donor.node_id) == []
    assert env.merkle_stats.keys_transferred == len(keys)
    assert env.merkle_stats.keys_unchanged == 0
    assert victim.store.stats["merkle_syncs"] == len(keys)
    assert donor.store.stats["merkle_syncs"] == 0
    assert all(victim.store.values_of(key) == ["v"] for key in keys)
    assert donor.anti_entropy.sessions == {}


def test_receiver_strictly_behind_mails_nothing_back():
    env, ahead, behind = merkle_pair()
    writer = ClientSession("w")
    write(ahead, writer, "cart", "v1")
    replicate(ahead, behind, "cart")
    write(ahead, writer, "cart", "v2")

    messages = run_exchange(ahead, behind)

    assert key_states_to(messages, ahead.node_id) == []
    assert env.merkle_stats.keys_transferred == 1
    assert behind.store.values_of("cart") == ["v2"]


def test_concurrent_siblings_on_both_sides_return_merged():
    env, left, right = merkle_pair()
    write(left, ClientSession("w1"), "cart", "beer")
    write(right, ClientSession("w2"), "cart", "wine")

    messages = run_exchange(left, right)

    (reply,) = key_states_to(messages, left.node_id)
    assert list(reply.payload["states"]) == ["cart"]
    assert reply.payload["want"] == []
    assert sorted(left.store.values_of("cart")) == ["beer", "wine"]
    assert sorted(right.store.values_of("cart")) == ["beer", "wine"]
    assert env.merkle_stats.keys_transferred == 2


def test_key_only_the_receiver_holds_still_returns():
    env, source, holder = merkle_pair()
    write(holder, ClientSession("w"), "cart", "beer")

    messages = run_exchange(source, holder)

    (request,) = key_states_to(messages, holder.node_id)
    assert request.payload == {"states": {}, "want": ["cart"]}
    (reply,) = key_states_to(messages, source.node_id)
    assert list(reply.payload["states"]) == ["cart"]
    assert source.store.values_of("cart") == ["beer"]
    assert env.merkle_stats.keys_transferred == 1


def test_duplicate_key_states_delivery_is_idempotent_and_silent():
    env, donor, victim = merkle_pair()
    write(donor, ClientSession("w"), "cart", "beer")
    messages = run_exchange(donor, victim)
    (key_states,) = key_states_to(messages, victim.node_id)
    state_before = victim.store.state_of("cart")

    effects = victim.on_message(key_states, now=1.0)

    assert sends(effects) == []
    assert victim.store.state_of("cart") == state_before
    assert env.merkle_stats.keys_unchanged == 1


def test_stale_range_response_after_its_descent_finished_is_dropped():
    """A duplicated leaf response must not ship the range's keys twice."""
    env, donor, victim = merkle_pair()
    writer = ClientSession("w")
    for index in range(40):                 # several ranges differ
        write(donor, writer, f"key-{index}", "v")
    queue = sends(donor.start_merkle_sync_with("B", now=0.0))
    nodes = {"A": donor, "B": victim}
    replayed = False
    while queue:
        message = queue.pop(0)
        effects = sends(nodes[message.receiver].on_message(message, now=0.0))
        queue.extend(effects)
        if (not replayed and message.payload.get("buckets")
                and donor.anti_entropy.sessions):
            # same leaf response again while other ranges are still open
            assert sends(donor.on_message(message, now=0.0)) == []
            replayed = True
    assert replayed
    assert env.merkle_stats.keys_transferred == 40
