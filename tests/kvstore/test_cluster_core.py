"""The cluster core both backends share: one validation, one env, one report.

A bare :class:`~repro.kvstore.cluster_core.ClusterCore` needs no transport;
the simulator and the asyncio cluster are subclasses that add one.  Anything
the core decides — which configurations are rejected, whether hints are
stored — must therefore come out the same on both backends.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.core.exceptions import ConfigurationError
from repro.kvstore import AsyncioCluster, ClusterCore, SimulatedCluster

SERVER_IDS = ("A", "B", "C", "D")
BACKENDS = {"sim": SimulatedCluster, "asyncio": AsyncioCluster}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("knobs", [
    {"deadline_mode": "adaptiv"},
    {"sync_batch_size": 0},
    {"replica_timeout_ms": -1},
    {"request_timeout_ms": 0},
    {"read_repair_batch_ms": -1.0},
    {"server_ids": ()},
], ids=lambda knobs: next(iter(knobs)))
def test_both_backends_reject_the_same_bad_configuration(backend, knobs):
    with pytest.raises(ConfigurationError):
        BACKENDS[backend](create("dvv"), **knobs)


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
