"""Hint-replay backoff for persistently slow peers (satellite of PR 5).

A peer whose latency EWMA times ``SLOW_PEER_MULTIPLIER`` reaches the replica
timeout gets one replay batch and is then left alone for
``ewma × HINT_BACKOFF_MULTIPLIER``; ticks that land inside the backoff window
are counted in
``hint_replays_deferred`` instead of re-sending batches that are still in
flight.  Healthy and never-observed peers are replayed on every tick, and the
backoff state is process memory — a crash forgets it.
"""

from __future__ import annotations

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import ClusterCore
from repro.kvstore.client import ClientSession
from repro.kvstore.protocol import ProtocolNode
from repro.kvstore.protocol.env import HINT_BACKOFF_MULTIPLIER
from repro.network.message import MessageType

SERVER_IDS = ("A", "B", "C")

#: With the ceiling (the replica timeout) at 10ms, an EWMA of 100ms is
#: persistently slow while 1ms is healthy.
CEILING_MS = 10.0
SLOW_EWMA_MS = 100.0


def build_node(node_id: str = "A") -> ProtocolNode:
    env = ClusterCore(create("dvv"), SERVER_IDS,
                      QuorumConfig(n=3, r=2, w=2, sloppy=True),
                      replica_timeout_ms=CEILING_MS)
    return ProtocolNode(node_id, env.mechanism, env)


def hold_hint(node: ProtocolNode, target_id: str, key: str = "cart") -> None:
    mechanism = node.env.mechanism
    sibling = ClientSession("writer").prepare_write(key, "beer")
    state = mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                            sibling, node.node_id)
    node.store.store_hint(target_id, key, state)


def replay(node: ProtocolNode, now: float) -> int:
    effects, batches = node.replay_hints(now)
    replays = [e for e in effects
               if getattr(e, "message", None) is not None
               and e.message.msg_type is MessageType.HINT_REPLAY]
    assert len(replays) == batches
    return batches


def test_slow_peer_is_replayed_once_then_backed_off():
    node = build_node()
    hold_hint(node, "B")
    node.latency.ewma["B"] = SLOW_EWMA_MS

    assert replay(node, now=0.0) == 1  # first tick goes through
    assert node.store.stats["hint_replays_deferred"] == 0

    # inside the backoff window: no batch, just a deferral tick
    assert replay(node, now=1.0) == 0
    assert replay(node, now=SLOW_EWMA_MS * HINT_BACKOFF_MULTIPLIER - 1.0) == 0
    assert node.store.stats["hint_replays_deferred"] == 2

    # past ewma × multiplier the peer gets its next chance
    assert replay(node, now=SLOW_EWMA_MS * HINT_BACKOFF_MULTIPLIER + 1.0) == 1


def test_healthy_peer_is_replayed_every_tick():
    node = build_node()
    hold_hint(node, "B")
    node.latency.ewma["B"] = 1.0  # deadline well below the ceiling
    for tick in range(3):
        assert replay(node, now=float(tick)) == 1
    assert node.store.stats["hint_replays_deferred"] == 0


def test_unobserved_peer_is_never_deferred():
    node = build_node()
    hold_hint(node, "B")  # no latency samples for B at all
    for tick in range(3):
        assert replay(node, now=float(tick)) == 1
    assert node.store.stats["hint_replays_deferred"] == 0


def test_backoff_is_per_target():
    node = build_node()
    hold_hint(node, "B", key="cart")
    hold_hint(node, "C", key="user")
    node.latency.ewma["B"] = SLOW_EWMA_MS

    assert replay(node, now=0.0) == 2  # both targets on the first tick
    # B defers, C still goes out
    assert replay(node, now=1.0) == 1
    assert node.store.stats["hint_replays_deferred"] == 1


def test_crash_forgets_backoff_state():
    node = build_node()
    hold_hint(node, "B")
    node.latency.ewma["B"] = SLOW_EWMA_MS
    assert replay(node, now=0.0) == 1
    assert node.hints.next_attempt  # backoff armed

    node.on_recover(wipe=False)

    assert not node.hints.next_attempt
    # hints live on disk and survived; the EWMAs died with the process, so
    # the next tick replays immediately instead of honouring a stale backoff
    assert node.store.storage.pending_hints() == 1
    assert replay(node, now=1.0) == 1
    assert node.store.stats["hint_replays_deferred"] == 0
