"""Concurrent per-range descents in one Merkle exchange (satellite of PR 5).

When a per-vnode digest comparison names several differing ranges, the
source opens every range's descent at once rather than walking them one
after another — their level messages interleave in flight.  The
``MerkleSyncStats.max_concurrent_ranges`` high-water mark is the observable
evidence, asserted here against both transports: the deterministic
simulator and the asyncio backend over real unix sockets.

Only ranges both sides hold keys in are descended (a range one side holds
nothing in travels whole), so the peer holds one key of its own in every
range before the exchange.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.clocks import DVVMechanism, create
from repro.cluster import QuorumConfig
from repro.kvstore import ClientSession, SimulatedCluster
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.network import FixedLatency

#: Enough keys that several of the 16 vnode ranges hold divergent data.
DIVERGENT_KEYS = 40


def diverge(node, keys=DIVERGENT_KEYS) -> None:
    """Write keys into one node's storage behind the others' backs."""
    client = ClientSession("divergent-writer")
    for index in range(keys):
        key = f"key-{index}"
        sibling = client.prepare_write(key, f"v{index}")
        node.local_write(key, None, sibling)


def hold_every_range(node) -> None:
    """Give ``node`` one key of its own in every vnode range."""
    client = ClientSession("peer-writer")
    store = node.storage
    missing = set(store.vnode_ids())
    for index in itertools.count():
        key = f"peer-{index}"
        partition = store.partition_map.partition_of(key)
        if partition in missing:
            missing.discard(partition)
            node.local_write(key, None, client.prepare_write(key, "peer"))
            if not missing:
                return


def test_simulator_descends_differing_ranges_concurrently():
    cluster = SimulatedCluster(
        DVVMechanism(),
        server_ids=("A", "B"),
        quorum=QuorumConfig(n=2, r=1, w=1),
        latency=FixedLatency(1.0),
        anti_entropy_interval_ms=None,
        seed=3,
    )
    diverge(cluster.servers["A"].node)
    hold_every_range(cluster.servers["B"].node)
    assert cluster.merkle_stats.max_concurrent_ranges == 0

    cluster.servers["A"].start_merkle_sync_with("B")
    cluster.drain()

    # several ranges differed, and their descents overlapped in flight
    assert cluster.merkle_stats.partitions_differing >= 2
    assert cluster.merkle_stats.max_concurrent_ranges >= 2
    # the exchange finished: no descent left open, replicas agree
    engine = cluster.servers["A"].protocol.anti_entropy
    assert engine.open_range_count() == 0
    for index in range(DIVERGENT_KEYS):
        assert cluster.servers["B"].node.values_of(f"key-{index}") == [f"v{index}"]


def test_asyncio_backend_descends_differing_ranges_concurrently():
    async def scenario():
        cluster = AsyncioCluster(
            create("dvv"),
            server_ids=("A", "B"),
            quorum=QuorumConfig(n=2, r=1, w=1),
            anti_entropy_interval_ms=None,
            hint_replay_interval_ms=None,
        )
        async with cluster:
            diverge(cluster.servers["A"].node)
            hold_every_range(cluster.servers["B"].node)
            assert cluster.merkle_stats.max_concurrent_ranges == 0

            cluster.servers["A"].start_merkle_sync_with("B")
            await cluster.converge(timeout_s=10.0)

            assert cluster.merkle_stats.partitions_differing >= 2
            assert cluster.merkle_stats.max_concurrent_ranges >= 2
            engine = cluster.servers["A"].protocol.anti_entropy
            assert engine.open_range_count() == 0

    asyncio.run(scenario())
