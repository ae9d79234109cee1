"""A quorum read over real sockets asks only the replica R still needs, and
its hedge — not the replica deadline — rescues a read whose replica is gone.

Three ``AsyncioCluster`` servers on Unix-domain sockets (N=3, R=2): the
coordinator's own state is one reply, so one ``REPLICA_GET`` completes the
quorum.  Frames are counted as the sum of ``stats.sent`` over every endpoint.
"""

from __future__ import annotations

import asyncio
import time

from repro.clocks import create
from repro.kvstore.asyncio_cluster import AsyncioCluster


def frames_sent(cluster: AsyncioCluster) -> int:
    endpoints = [s.transport for s in cluster.servers.values()]
    endpoints += [c.transport for c in cluster.clients.values()]
    return sum(endpoint.stats.sent for endpoint in endpoints)


def quiet_cluster(**overrides) -> AsyncioCluster:
    """No daemons: every frame on the wire belongs to a client request."""
    return AsyncioCluster(create("dvv"), server_ids=("A", "B", "C"),
                          anti_entropy_interval_ms=None,
                          hint_replay_interval_ms=None, **overrides)


async def written_and_settled(cluster: AsyncioCluster, client, keys) -> None:
    for key in keys:
        assert await client.put(key, f"value-of-{key}") is not None
    await cluster.converge(timeout_s=5.0, poll_s=0.01)
    await asyncio.sleep(0.05)               # the third replica's ack lands


def test_a_healthy_get_costs_four_frames():
    async def scenario() -> int:
        cluster = quiet_cluster()
        async with cluster:
            client = await cluster.client("c1")
            await written_and_settled(cluster, client, ["cart"])
            before = frames_sent(cluster)
            result = await client.get("cart")
            await asyncio.sleep(0.05)       # anything the read sends late
            assert result is not None and result.values == ["value-of-cart"]
            return frames_sent(cluster) - before

    # client -> coordinator, coordinator -> one replica and back, reply to
    # the client.  Asking both other primaries cost 6.
    assert asyncio.run(scenario()) == 4


def test_hedge_answers_a_read_whose_first_replica_is_gone():
    async def scenario():
        cluster = quiet_cluster(replica_timeout_ms=2000.0,
                                request_timeout_ms=5000.0)
        async with cluster:
            client = await cluster.client("c1")
            # Keys coordinated elsewhere whose first-ranked replica is B.
            keys = [key for key in (f"key-{index}" for index in range(60))
                    if cluster.placement.primary_replicas(key)[1] == "B"][:3]
            assert keys
            await written_and_settled(cluster, client, keys)
            cluster.servers["B"].runner.cancel_all()
            await cluster.servers["B"].transport.close()
            latencies = []
            for key in keys:
                started = time.perf_counter()
                result = await client.get(key)
                latencies.append(time.perf_counter() - started)
                assert result is not None and result.values == [f"value-of-{key}"]
            return latencies, cluster.metrics_snapshot()

    latencies, snapshot = asyncio.run(scenario())
    # The hedge fires at the floor (replica_timeout_ms / 5 = 400 ms), well
    # before B's 2 s deadline.
    assert max(latencies) < 1.0, latencies
    assert snapshot["coordinator.read_hedges"] >= len(latencies)
    assert snapshot["coordinator.reserve_contacts"] >= len(latencies)
