"""The cluster core both backends share: one validation, one env, one report.

A bare :class:`~repro.kvstore.cluster_core.ClusterCore` needs no transport;
the simulator and the asyncio cluster are subclasses that add one.  Anything
the core decides — which configurations are rejected, whether hints are
stored, which replica pair anti-entropy syncs next — must therefore come out
the same on both backends.
"""

from __future__ import annotations

import asyncio
import logging
import os

import pytest

from repro.clocks import Sibling, create
from repro.cluster import QuorumConfig
from repro.core import Dot
from repro.core.exceptions import ConfigurationError
from repro.kvstore import AsyncioCluster, ClusterCore, ServerHost, SimulatedCluster
from repro.kvstore.client import ClientSession
from repro.kvstore.protocol import ProtocolNode, SetTimer
from repro.kvstore.protocol.env import REQUEST_OVERHEAD_BYTES
from repro.network.message import Message, MessageType

SERVER_IDS = ("A", "B", "C", "D")
BACKENDS = {"sim": SimulatedCluster, "asyncio": AsyncioCluster}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("knobs", [
    {"replica_timeout_ms": -1},
    {"request_timeout_ms": 0},
    {"server_ids": ()},
    {"anti_entropy_interval_ms": 0.0},
    {"hint_replay_interval_ms": -5.0},
], ids=lambda knobs: next(iter(knobs)))
def test_both_backends_reject_the_same_bad_configuration(backend, knobs):
    with pytest.raises(ConfigurationError):
        BACKENDS[backend](create("dvv"), **knobs)


def test_the_hedge_floor_is_checked_against_the_replica_timeout():
    with pytest.raises(ConfigurationError, match="hedge_floor_ms"):
        ClusterCore(create("dvv"), hedge_floor_ms=0.0)
    with pytest.raises(ConfigurationError, match="hedge floor"):
        ClusterCore(create("dvv"), hedge_floor_ms=5.0, replica_timeout_ms=1.0)
    # The simulator's hedge floor is 2.0: a shorter replica timeout is refused.
    with pytest.raises(ConfigurationError, match="hedge floor"):
        SimulatedCluster(create("dvv"), replica_timeout_ms=1.0)


@pytest.mark.parametrize("cluster_type, knob", [
    (ClusterCore, {"deadline_mode": "fixed"}),
    (SimulatedCluster, {"deadline_mode": "fixed"}),
    (AsyncioCluster, {"deadline_mode": "fixed"}),
    # The simulator's hedge floor is fixed at the core's default.
    (SimulatedCluster, {"deadline_floor_ms": 2.0}),
    (SimulatedCluster, {"hedge_floor_ms": 2.0}),
], ids=lambda value: value.__name__ if isinstance(value, type) else next(iter(value)))
def test_knobs_that_are_not_options_are_refused(cluster_type, knob):
    with pytest.raises(TypeError):
        cluster_type(create("dvv"), **knob)


def armed_delays(node, msg_type, payload, timer):
    """The delays of the ``timer`` timers a coordinator arms for one request."""
    effects = node.on_message(
        Message(sender="client:c1", receiver=node.node_id, msg_type=msg_type,
                payload=payload, size_bytes=REQUEST_OVERHEAD_BYTES),
        now=0.0)
    return [effect.delay_ms for effect in effects
            if isinstance(effect, SetTimer) and effect.timer_id[0] == timer]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_replica_deadline_is_the_replica_timeout(backend):
    """However fast a replica has been, its deadline is the fixed timeout."""
    cluster = BACKENDS[backend](create("dvv"), server_ids=SERVER_IDS)
    key = "cart"
    primaries = cluster.placement.primary_replicas(key)
    node = ProtocolNode(primaries[0], cluster.mechanism, cluster)
    for replica_id in primaries[1:]:
        node.latency.observe(replica_id, cluster.replica_timeout_ms / 100.0)
    sibling = ClientSession("c1").prepare_write(key, "beer")
    delays = armed_delays(node, MessageType.COORDINATE_PUT,
                          {"key": key, "sibling": sibling, "context": None}, "replica")
    delays += armed_delays(node, MessageType.COORDINATE_GET, {"key": key}, "replica")
    assert delays == [cluster.replica_timeout_ms] * 3  # two PUT replicas, one GET


@pytest.mark.parametrize("backend, replica_timeout_ms, floor_ms", [
    ("sim", 10.0, 2.0),
    ("asyncio", 100.0, 20.0),   # replica_timeout_ms / 5
])
def test_each_backend_has_its_own_hedge_floor(backend, replica_timeout_ms, floor_ms):
    cluster = BACKENDS[backend](create("dvv"), server_ids=SERVER_IDS,
                                replica_timeout_ms=replica_timeout_ms)
    assert cluster.hedge_floor_ms == floor_ms
    # A replica never observed: the GET's hedge waits exactly the floor.
    key = "cart"
    node = ProtocolNode(cluster.placement.primary_replicas(key)[0],
                        cluster.mechanism, cluster)
    assert armed_delays(node, MessageType.COORDINATE_GET, {"key": key}, "hedge") == [floor_ms]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_hints_are_stored_only_when_a_daemon_replays_them(backend):
    cluster_type = BACKENDS[backend]
    assert cluster_type(create("dvv")).hinted_handoff_enabled
    assert not cluster_type(create("dvv"),
                            hint_replay_interval_ms=None).hinted_handoff_enabled


def test_a_bare_core_is_an_env_with_nothing_to_report():
    core = ClusterCore(create("dvv"), SERVER_IDS)
    assert core.servers == {} and core.clients == {}
    assert core.transport_stats() == []
    assert core.sync_bytes() == 0
    assert core.is_converged()
    assert core.can_reach("A", "B")
    core.membership.mark_down("B")
    assert not core.can_reach("A", "B")
    assert core.stat_totals() == {"pending_hints": 0}
    assert core.metrics_snapshot()["transport.bytes_sent"] == 0


def test_asyncio_sloppy_write_with_replay_off_stores_no_hint():
    """A fallback that takes a dead primary's write keeps the data but, with
    no daemon to replay it, holds no hint for it."""

    async def scenario():
        cluster = AsyncioCluster(
            create("dvv"), server_ids=SERVER_IDS,
            quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
            anti_entropy_interval_ms=None, hint_replay_interval_ms=None,
            replica_timeout_ms=50.0)
        async with cluster:
            key = next(f"cart-{index}" for index in range(200)
                       if len(cluster.placement.primary_replicas(f"cart-{index}")) == 3)
            primaries = cluster.placement.primary_replicas(key)
            down = cluster.servers[primaries[1]]
            down.runner.cancel_all()
            await down.transport.close()

            client = await cluster.client("c1")
            assert await client.put(key, "umbrella") is not None
            # The put resolves at W=2; wait for the dead primary's deadline to
            # promote a fallback, which then stores the write.
            (fallback,) = [server for server_id, server in cluster.servers.items()
                           if server_id not in primaries]
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while key not in fallback.node.storage.keys():
                assert loop.time() < deadline, "no fallback took the write"
                await asyncio.sleep(0.01)
            return cluster.stat_totals()["pending_hints"]

    assert asyncio.run(scenario()) == 0


# --------------------------------------------------------------------------- #
# The one daemon policy: both backends tick the same rotation
# --------------------------------------------------------------------------- #
@pytest.fixture
def exchanges(monkeypatch):
    """Every exchange a tick starts, as ``(source, target)``; none is sent."""
    started = []
    monkeypatch.setattr(ServerHost, "start_merkle_sync_with",
                        lambda server, peer_id: started.append((server.node_id, peer_id)))
    return started


def idle_cluster(backend, server_ids=("A", "B", "C")):
    """A cluster whose daemons are off, so only explicit ticks run."""
    return BACKENDS[backend](create("dvv"), server_ids=server_ids,
                             anti_entropy_interval_ms=None,
                             hint_replay_interval_ms=None)


def tick_started(backend, ticks):
    """Tick anti-entropy ``ticks`` times on a started A, B, C cluster."""
    cluster = idle_cluster(backend)
    if backend == "sim":
        for _ in range(ticks):
            cluster.anti_entropy_tick()
        return

    async def scenario():
        async with cluster:
            for _ in range(ticks):
                cluster.anti_entropy_tick()

    asyncio.run(scenario())


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_anti_entropy_ticks_rotate_through_the_unordered_sorted_pairs(backend, exchanges):
    tick_started(backend, 4)
    assert exchanges == [("A", "B"), ("A", "C"), ("B", "C"), ("A", "B")]


def test_anti_entropy_ticks_skip_pairs_with_a_down_server(exchanges):
    cluster = idle_cluster("sim")
    cluster.fail_node("B")
    for _ in range(3):
        cluster.anti_entropy_tick()
    assert exchanges == [("A", "C")] * 3


def test_joined_servers_enter_the_rotation_and_departed_ones_leave(exchanges):
    cluster = idle_cluster("sim", server_ids=("A", "B"))
    cluster.join_node("C")
    for _ in range(3):
        cluster.anti_entropy_tick()
    assert exchanges == [("A", "B"), ("A", "C"), ("B", "C")]
    exchanges.clear()
    cluster.decommission_node("B")
    for _ in range(2):
        cluster.anti_entropy_tick()
    assert exchanges == [("A", "C")] * 2


def test_a_single_server_cluster_ticks_without_starting_anything(exchanges):
    cluster = idle_cluster("sim", server_ids=("A",))
    cluster.anti_entropy_tick()
    assert exchanges == []


def test_hint_replay_ticks_every_up_holder_in_id_order(monkeypatch):
    replayed = []
    monkeypatch.setattr(ServerHost, "replay_hints",
                        lambda server: replayed.append(server.node_id))
    cluster = idle_cluster("sim", server_ids=("D", "C", "B", "A"))
    for holder in ("D", "B", "A"):
        node = cluster.servers[holder].node
        node.store_hint("C", "k", node.local_write("k", None, Sibling("v", Dot("c", 1))))
    cluster.fail_node("B")
    cluster.hint_replay_tick()
    assert replayed == ["A", "D"]


def test_asyncio_contains_a_raising_daemon_step_and_still_stops_cleanly(
        monkeypatch, caplog):
    """A bug in one exchange costs that exchange: the daemon keeps ticking,
    the error is logged and counted, and ``stop`` closes every endpoint."""
    attempts = []

    def broken(server, peer_id):
        attempts.append((server.node_id, peer_id))
        raise RuntimeError("daemon step bug")

    monkeypatch.setattr(ServerHost, "start_merkle_sync_with", broken)

    async def scenario():
        cluster = AsyncioCluster(create("dvv"), server_ids=("A", "B", "C"),
                                 anti_entropy_interval_ms=5.0,
                                 hint_replay_interval_ms=None)
        await cluster.start()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        while len(attempts) < 4 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await cluster.stop()
        return cluster

    with caplog.at_level(logging.ERROR):
        cluster = asyncio.run(scenario())

    assert len(attempts) >= 4
    assert attempts[:4] == [("A", "B"), ("A", "C"), ("B", "C"), ("A", "B")]
    assert cluster.metrics_snapshot()["transport.handler_errors"] == len(attempts)
    assert all(server.transport._closed for server in cluster.servers.values())
    assert not os.path.exists(cluster.socket_dir)
    assert "daemon step bug" in caplog.text


def test_asyncio_cluster_refuses_to_start_again_after_stop():
    async def scenario():
        cluster = idle_cluster("asyncio")
        async with cluster:
            pass
        with pytest.raises(ConfigurationError, match="cannot be restarted"):
            await cluster.start()

    asyncio.run(scenario())
