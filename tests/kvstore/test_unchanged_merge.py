"""A merge that changes nothing does no work, and decides nothing differently.

Four shortcuts skip work when a merge cannot change anything:

* ``plan_read_repair`` returns the first reply unmerged when every reply
  equals it;
* ``StorageNode.local_merge`` stores nothing (and so notifies no listener)
  when the remote state is the stored one or the merge result equals it;
* the anti-entropy receiver settles a key by state identity or equality and
  compares sibling fingerprints only when neither decides;
* ``DVVSet.sync`` returns the other operand when one side is empty.

Each is checked against the code it replaced, kept here as a reference, on
states reached by random write / replicate traces over three replicas with
fresh, stale and blind contexts, under every registered mechanism.  A
replicated state may arrive as the very object a replica stores or as an
equal copy decoded off the wire; traces produce both.

The identities the shortcuts rest on — ``merge(s, s) == s`` and
``merge(empty, s) == s == merge(s, empty)`` — hold for every state a merge
produced, which is what a replica holds once replication, read repair or
anti-entropy has reached it, and for every ``dvvset`` state.  A
coordinator's own write output is not always a merge output: the
tuple-based mechanisms' merges sort siblings, so there they hold up to
order, with the same sibling set for the exact mechanisms.  That is the one
place a shortcut keeps a different state than the code it replaced: a node
merging its own write output into itself keeps it as written, where the
merge would have put it in order.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import Sibling, available, create
from repro.cluster import PartitionMap, QuorumConfig
from repro.core import DVVSet, Dot
from repro.core.dvvset import _unique
from repro.kvstore import ClusterCore, StorageNode, plan_read_repair
from repro.kvstore.context import CausalContext
from repro.kvstore.merkle_index import MerkleIndex, state_fingerprint
from repro.kvstore.protocol import ProtocolNode
from repro.kvstore.protocol.effects import Send
from repro.kvstore.read_repair import RepairPlan
from repro.network.message import Message, MessageType
from repro.network.wire import decode_message, encode_message

from merkle_reference import live_digest, rebuilt_digest

SERVERS = ["A", "B", "C"]
CLIENTS = [f"client-{index}" for index in range(5)]
KEYS = ["cart", "user"]
MECHANISMS = available()


# --------------------------------------------------------------------------- #
# The references: the code each shortcut replaced
# --------------------------------------------------------------------------- #
def reference_plan_read_repair(mechanism, replies) -> RepairPlan:
    merged_state = replies[0][1]
    for _, state in replies[1:]:
        merged_state = mechanism.merge(merged_state, state)
    merged_fingerprint = _fingerprint(mechanism, merged_state)
    stale = [
        replica_id for replica_id, state in replies
        if _fingerprint(mechanism, state) != merged_fingerprint
    ]
    return RepairPlan(merged_state=merged_state, stale_replicas=stale,
                      agreed=not stale)


def _fingerprint(mechanism, state) -> tuple:
    dots = {sibling.origin_dot for sibling in mechanism.siblings(state)}
    return tuple(sorted((dot.actor, dot.counter) for dot in dots))


def reference_receive(node: StorageNode, states, want) -> Tuple[List[str], Set[str]]:
    """Today's receiver rule on a node whose every merge is stored.

    Returns the keys it mails back and the keys it counts unchanged.
    """
    index = node.merkle_index
    settled = set()
    unchanged = set()
    for key, state in states.items():
        before = index.fingerprint(key)
        merged = node.mechanism.merge(node.storage.get_state(key), state)
        node.storage.put_state(key, merged)
        after = index.fingerprint(key)
        if after == before:
            unchanged.add(key)
        if after == state_fingerprint(node.mechanism, state):
            settled.add(key)
    reply = [key for key in want
             if key not in settled and node.storage.has_key(key)]
    return reply, unchanged


def reference_sync(left: DVVSet, right: DVVSet) -> DVVSet:
    """``DVVSet.sync`` before it returned an empty side's other operand."""
    mine = {actor: (counter, values) for actor, counter, values in left.entries}
    theirs = {actor: (counter, values) for actor, counter, values in right.entries}
    entries = []
    for actor in sorted(set(mine) | set(theirs)):
        if actor not in theirs:
            entries.append((actor,) + mine[actor])
        elif actor not in mine:
            entries.append((actor,) + theirs[actor])
        else:
            entries.append(DVVSet._merge_entry(actor, mine[actor], theirs[actor]))
    return DVVSet(entries, _unique(left.anonymous + right.anonymous))


# --------------------------------------------------------------------------- #
# Write / replicate traces over three indexed replicas
# --------------------------------------------------------------------------- #
_STEP = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(SERVERS), st.sampled_from(KEYS),
              st.sampled_from(CLIENTS),
              st.sampled_from(["fresh", "stale", "blind"]),
              st.integers(min_value=0, max_value=1 << 16)),
    st.tuples(st.just("replicate"), st.sampled_from(SERVERS),
              st.sampled_from(SERVERS), st.sampled_from(KEYS), st.booleans()),
)
_TRACES = st.lists(_STEP, min_size=1, max_size=24)


def wire_copy(state):
    """An equal state built afresh by the wire decoder, as a receiver sees it."""
    message = Message(sender="A", receiver="B", msg_type=MessageType.REPLICA_PUT,
                      payload={"state": state}, size_bytes=0)
    return decode_message(encode_message(message)).payload["state"]


class Trace:
    """Three indexed replicas driven by write / replicate steps."""

    def __init__(self, mechanism) -> None:
        self.mechanism = mechanism
        self.nodes: Dict[str, StorageNode] = {}
        for server in SERVERS:
            self.nodes[server] = StorageNode(server, mechanism)
        self.contexts = {key: [mechanism.empty_context()] for key in KEYS}
        self.sequence = {client: 0 for client in CLIENTS}
        self.written: List = []    # every state a write produced
        self.merged: List = []     # every state a merge produced

    def run(self, steps) -> "Trace":
        for step in steps:
            if step[0] == "write":
                self.write(*step[1:])
            else:
                self.replicate(*step[1:])
        return self

    def write(self, server, key, client, kind, pick) -> None:
        m = self.mechanism
        node = self.nodes[server]
        fresh = m.read(node.state_of(key)).context
        contexts = self.contexts[key]
        contexts.append(fresh)
        context = {"fresh": fresh, "blind": None,
                   "stale": contexts[pick % len(contexts)]}[kind]
        if context is not None:
            context = CausalContext(key, context, m.name)
        self.sequence[client] += 1
        counter = self.sequence[client]
        written = Sibling(value=f"{client}-{counter}",
                          origin_dot=Dot(client, counter))
        self.written.append(node.local_write(key, context, written))

    def replicate(self, source, target, key, over_wire) -> None:
        """``target`` merges ``source``'s state, checked against today's merge.

        Today's ``local_merge`` stored ``reference``.  The one state kept
        instead is a node's own state merged into itself, which may be a
        write output the merge would only have put in order.
        """
        m = self.mechanism
        node = self.nodes[target]
        remote = self.nodes[source].state_of(key)
        if over_wire:
            remote = wire_copy(remote)
        before = node.state_of(key)
        reference = m.merge(before, remote)
        self.merged.append(reference)
        unchanged = node.stats["merges_unchanged"]
        returned = node.local_merge(key, remote)
        assert returned is node.state_of(key)
        stored_nothing = remote is before or reference == before
        assert node.stats["merges_unchanged"] == unchanged + stored_nothing
        if remote is before:
            assert returned is before
            assert m.merge(before, before) == reference
        else:
            assert returned == reference
            assert (returned is before) == (reference == before)

    def assert_indexes_match_rebuilds(self) -> None:
        for node in self.nodes.values():
            assert live_digest(node.merkle_index) == rebuilt_digest(node)


def every_mechanism_trace():
    return st.tuples(st.sampled_from(MECHANISMS), _TRACES)


# --------------------------------------------------------------------------- #
# The identities the shortcuts rely on
# --------------------------------------------------------------------------- #
def assert_idempotent(m, state) -> None:
    empty = m.empty_state()
    assert m.merge(state, state) == state
    assert m.merge(empty, state) == state
    assert m.merge(state, empty) == state


@settings(max_examples=60, deadline=None)
@given(case=every_mechanism_trace())
def test_merge_is_idempotent_on_reachable_states(case):
    name, steps = case
    m = create(name)
    trace = Trace(m).run(steps)
    for state in trace.merged:
        assert_idempotent(m, state)
    for state in trace.written:
        if name == "dvvset":
            assert_idempotent(m, state)
        # A merge output is a fixed point; a write output reaches one.
        canonical = m.merge(state, state)
        assert m.merge(canonical, canonical) == canonical
        assert m.merge(m.empty_state(), state) == canonical == m.merge(state, m.empty_state())
        if m.exact:
            assert state_fingerprint(m, canonical) == state_fingerprint(m, state)


# --------------------------------------------------------------------------- #
# local_merge: the reference state is stored and the index stays exact
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(case=every_mechanism_trace())
def test_local_merge_stores_the_reference_state_and_indexes_stay_exact(case):
    name, steps = case
    trace = Trace(create(name)).run(steps)    # each merge checked in ``replicate``
    trace.assert_indexes_match_rebuilds()
    # Once a merge has put a state in order, re-deliveries change nothing.
    for node in trace.nodes.values():
        for key in KEYS:
            stored = node.state_of(key)
            assert node.local_merge(key, stored) is stored
            settled = node.local_merge(key, wire_copy(stored))
            assert settled == trace.mechanism.merge(stored, stored)
            assert node.local_merge(key, settled) is settled
            assert node.local_merge(key, wire_copy(settled)) is settled
    trace.assert_indexes_match_rebuilds()


def test_unchanged_merge_notifies_no_listener_and_hashes_nothing(monkeypatch):
    m = create("dvvset")
    node = StorageNode("A", m)
    sibling = Sibling(value="v", origin_dot=Dot("c", 1))
    state = node.local_write("cart", None, sibling)
    node.merkle_index.flush()
    heard = []
    on_state_changed = MerkleIndex.on_state_changed

    def recording_update(self, key, new, fingerprint=None):
        heard.append(key)
        on_state_changed(self, key, new, fingerprint)

    monkeypatch.setattr(MerkleIndex, "on_state_changed", recording_update)
    hashed = node.stats["keys_hashed"]

    assert node.local_merge("cart", state) is state
    assert node.local_merge("cart", wire_copy(state)) is state
    node.merkle_index.flush()

    assert heard == []
    assert node.stats["keys_hashed"] == hashed
    assert node.stats["merges"] == 2
    assert node.stats["merges_unchanged"] == 2


# --------------------------------------------------------------------------- #
# plan_read_repair against today's planner
# --------------------------------------------------------------------------- #
def assert_same_plan(m, replies) -> None:
    got = plan_read_repair(m, replies)
    expected = reference_plan_read_repair(m, replies)
    first = replies[0][1]
    if all(state == first for _, state in replies) and m.merge(first, first) != first:
        # Equal replies no merge produced: only a write output copied
        # verbatim can be one.  The shortcut answers with the state itself.
        assert got.merged_state is first and got.agreed and not got.stale_replicas
        if m.exact:
            assert expected.agreed and not expected.stale_replicas
            assert _fingerprint(m, expected.merged_state) == _fingerprint(m, first)
        return
    assert got.merged_state == expected.merged_state
    assert got.stale_replicas == expected.stale_replicas
    assert got.agreed == expected.agreed


@settings(max_examples=60, deadline=None)
@given(case=every_mechanism_trace(),
       picks=st.lists(st.tuples(st.sampled_from(SERVERS), st.booleans()),
                      min_size=1, max_size=4))
def test_plan_matches_todays_planner(case, picks):
    name, steps = case
    m = create(name)
    trace = Trace(m).run(steps)
    for key in KEYS:
        states = {server: node.state_of(key) for server, node in trace.nodes.items()}
        # The replies as read: some of them equal, some not.
        replies = [(server, wire_copy(states[server]) if over_wire else states[server])
                   for server, over_wire in picks]
        assert_same_plan(m, replies)
        for server, state in states.items():
            # Every replica agreeing on one replica's state.
            agreeing = [(other, wire_copy(state) if index else state)
                        for index, other in enumerate(SERVERS)]
            assert_same_plan(m, agreeing)
            # The first and last replies agree; the middle one may not.
            for other in SERVERS:
                assert_same_plan(m, [(server, state), (other, states[other]),
                                     ("D", wire_copy(state))])
    for state in trace.merged:
        plan = plan_read_repair(m, [("A", state), ("B", wire_copy(state))])
        assert plan.merged_state is state and plan.agreed


# --------------------------------------------------------------------------- #
# The anti-entropy receiver against today's fingerprint rule
# --------------------------------------------------------------------------- #
def protocol_env(mechanism) -> ClusterCore:
    return ClusterCore(mechanism, SERVERS, QuorumConfig(n=3, r=2, w=2, sloppy=True))


def twin(node: StorageNode, partition_map=PartitionMap(1)) -> StorageNode:
    """A fresh node holding the very same state objects as ``node``."""
    copy = StorageNode(node.node_id, node.mechanism, partition_map=partition_map)
    for key, state in node.storage.items():
        copy.storage.put_state(key, state)
    return copy


@settings(max_examples=60, deadline=None)
@given(case=every_mechanism_trace(),
       sender=st.sampled_from(SERVERS), receiver=st.sampled_from(SERVERS),
       over_wire=st.booleans(), want_all=st.booleans())
def test_receiver_matches_todays_fingerprint_rule(case, sender, receiver,
                                                  over_wire, want_all):
    name, steps = case
    m = create(name)
    trace = Trace(m).run(steps)
    source = trace.nodes[sender]
    states = {key: source.state_of(key) for key in KEYS if source.storage.has_key(key)}
    if over_wire:
        states = {key: wire_copy(state) for key, state in states.items()}
    want = list(KEYS) if want_all else list(states)

    reference = twin(trace.nodes[receiver])
    expected_reply, expected_unchanged = reference_receive(reference, states, want)
    # A key whose received state is the receiver's own stored state is kept
    # as written: it settles and counts unchanged.  The reference's merge may
    # have put a write output in order; for an inexact mechanism it may also
    # have dropped a sibling the write output kept, and then it replies.
    own = {key for key, state in states.items()
           if state is trace.nodes[receiver].state_of(key)}
    if m.exact:
        assert own <= expected_unchanged and not own & set(expected_reply)
    expected_reply = [key for key in expected_reply if key not in own]
    expected_unchanged = len(expected_unchanged | own)

    env = protocol_env(m)
    node = ProtocolNode(receiver, m, env,
                        store=twin(trace.nodes[receiver], env.placement.partition_map))
    effects = node.on_message(Message(
        sender="X", receiver=receiver, msg_type=MessageType.MERKLE_KEY_STATES,
        payload={"states": states, "want": want}, size_bytes=0), now=0.0)
    replies = [effect.message for effect in effects if isinstance(effect, Send)]
    reply = [key for message in replies for key in message.payload["states"]]

    assert reply == expected_reply
    assert all(message.payload["want"] == [] for message in replies)
    assert env.merkle_stats.keys_unchanged == expected_unchanged
    for key in KEYS:
        kept = node.store.state_of(key)
        if states.get(key) is trace.nodes[receiver].state_of(key):
            kept = m.merge(kept, kept)    # its own state, kept as written
        assert kept == reference.state_of(key)
    assert live_digest(node.store.merkle_index) == rebuilt_digest(node.store)


# --------------------------------------------------------------------------- #
# DVVSet.sync with an empty side
# --------------------------------------------------------------------------- #
_VALUES = st.sampled_from(["x", "y", "z"])
_ENTRIES = st.dictionaries(
    st.sampled_from(SERVERS),
    st.tuples(st.integers(min_value=0, max_value=3),
              st.lists(_VALUES, max_size=3)),
    max_size=3)


def dvvset(entries, anonymous) -> DVVSet:
    return DVVSet([(actor, max(counter, len(values)), values)
                   for actor, (counter, values) in entries.items()], anonymous)


@settings(max_examples=300, deadline=None)
@given(left=_ENTRIES, left_anonymous=st.lists(_VALUES, max_size=4),
       right=_ENTRIES, right_anonymous=st.lists(_VALUES, max_size=4))
def test_dvvset_sync_matches_the_old_kernel(left, left_anonymous,
                                            right, right_anonymous):
    # Anonymous values drawn from three with repeats: duplicates are common.
    a, b = dvvset(left, left_anonymous), dvvset(right, right_anonymous)
    empty = DVVSet.empty()
    for x, y in ((a, b), (b, a), (empty, a), (a, empty), (empty, empty)):
        assert x.sync(y) == reference_sync(x, y)


def test_dvvset_sync_with_an_empty_side_returns_the_other_unless_it_has_duplicates():
    empty = DVVSet.empty()
    clock = DVVSet([("A", 2, ("x",))], ("y",))
    assert empty.sync(clock) is clock
    assert clock.sync(empty) is clock
    doubled = DVVSet([("A", 2, ("x",))], ("y", "y"))
    assert empty.sync(doubled) == DVVSet([("A", 2, ("x",))], ("y",))
    assert doubled.sync(empty) == DVVSet([("A", 2, ("x",))], ("y",))


def test_dvvset_empty_state_is_one_shared_instance():
    m = create("dvvset")
    assert m.empty_state() is m.empty_state() is create("dvvset").empty_state()
    assert m.empty_state() == DVVSet.empty()
    assert StorageNode("A", m).state_of("absent") is m.empty_state()
