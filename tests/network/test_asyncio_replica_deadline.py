"""Replica deadlines that fire over real sockets.

Three ``AsyncioCluster`` servers on Unix-domain sockets with a 50 ms replica
deadline.  A server is taken down the way the asyncio backend allows — its
timers disarmed and its endpoint closed — so the frames the coordinator sends
it go nowhere and only the deadline can tell.
"""

from __future__ import annotations

import asyncio
import time

from repro.clocks import create
from repro.cluster.preference_list import QuorumConfig
from repro.kvstore.asyncio_cluster import AsyncioCluster

REPLICA_TIMEOUT_MS = 50.0


def cluster_of_three(**overrides) -> AsyncioCluster:
    """No anti-entropy; hint replay on (hints are stored only then) but too
    slow to run during a test."""
    return AsyncioCluster(create("dvv"), server_ids=("A", "B", "C"),
                          anti_entropy_interval_ms=None,
                          hint_replay_interval_ms=60_000.0,
                          replica_timeout_ms=REPLICA_TIMEOUT_MS, **overrides)


def key_where(cluster: AsyncioCluster, predicate) -> str:
    return next(key for key in (f"key-{index}" for index in range(200))
                if predicate(cluster.placement.primary_replicas(key)))


async def take_down(cluster: AsyncioCluster, server_id: str) -> None:
    server = cluster.servers[server_id]
    server.runner.cancel_all()
    await server.transport.close()


async def until(predicate, timeout_s: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "never held"
        await asyncio.sleep(0.005)


def test_a_put_past_a_closed_primary_fires_its_deadline_and_hints_it():
    async def scenario():
        cluster = cluster_of_three()
        async with cluster:
            key = key_where(cluster, lambda primaries: primaries[0] == "A")
            coordinator = cluster.servers["A"]
            client = await cluster.client("c1")
            assert await client.put(key, "before") is not None
            await take_down(cluster, "B")
            result = await client.put(key, "after")
            stats = coordinator.transport.stats
            await until(lambda: stats.deadlines_fired >= 1)
            node = coordinator.node
            return (key, result, stats.deadlines_fired, node.storage.hint_targets(),
                    [hint.key for hint in node.storage.hints_for("B")])

    key, result, fired, hint_targets, hinted_keys = asyncio.run(scenario())
    # W=2: the coordinator's own write and C's ack.
    assert result is not None
    assert fired >= 1
    # Three servers leave no fallback: the coordinator holds B's copy.
    assert "B" in hint_targets
    assert key in hinted_keys


def test_a_strict_quorum_with_two_servers_closed_answers_an_error_in_time():
    async def scenario():
        cluster = cluster_of_three(
            quorum=QuorumConfig(n=3, r=2, w=2, sloppy=False))
        async with cluster:
            key = key_where(cluster, lambda primaries: primaries[0] == "A")
            client = await cluster.client("c1")
            await take_down(cluster, "B")
            await take_down(cluster, "C")
            started = time.perf_counter()
            result = await client.put(key, "value")
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            return (result, client.records[-1], elapsed_ms,
                    cluster.request_timeout_ms,
                    cluster.servers["A"].transport.stats.deadlines_fired)

    result, record, elapsed_ms, request_timeout_ms, fired = asyncio.run(scenario())
    assert result is None
    assert not record.ok
    assert record.error == "quorum_unreachable"
    assert record.coordinator == "A"
    # Both replica deadlines fired; the request deadline did not.
    assert fired >= 2
    assert elapsed_ms < request_timeout_ms, elapsed_ms
