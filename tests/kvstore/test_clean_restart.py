"""Persisting the Merkle index across clean restarts (satellite of PR 5).

A clean shutdown flushes the write-maintained hash trees and marks the
on-disk index clean, so the following restart adopts the maintained digests
instead of rebuilding them (Riak's "hashtree marked clean on graceful stop"
optimisation) — counted per occupied vnode in ``rebuilds_skipped``.  A crash
or any post-flush mutation voids the cleanliness, and the restart pays the
``full_rebuilds`` it always did.
"""

from __future__ import annotations

from repro.clocks import DVVMechanism
from repro.cluster import QuorumConfig
from repro.kvstore import ClientSession, SimulatedCluster
from repro.kvstore.merkle_index import MerkleIndex
from repro.kvstore.server import StorageNode
from repro.network import FixedLatency


def build_cluster(**kwargs):
    kwargs.setdefault("server_ids", ("A", "B", "C"))
    kwargs.setdefault("quorum", QuorumConfig(n=3, r=2, w=2))
    kwargs.setdefault("latency", FixedLatency(1.0))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("seed", 7)
    return SimulatedCluster(DVVMechanism(), **kwargs)


def populate(cluster, keys=12):
    client = cluster.client("writer")
    for index in range(keys):
        client.put(f"key-{index}", f"v{index}")
    cluster.drain()


class TestSimulatedClusterRestarts:
    def test_clean_shutdown_then_recover_skips_rebuilds(self):
        cluster = build_cluster()
        populate(cluster)
        node = cluster.servers["B"].node
        rebuilds_before = node.stats["full_rebuilds"]
        assert node.stats["rebuilds_skipped"] == 0

        cluster.shutdown_node("B")
        cluster.recover_node("B")
        cluster.drain()

        assert node.stats["rebuilds_skipped"] > 0
        assert node.stats["full_rebuilds"] == rebuilds_before

    def test_crash_recover_still_pays_full_rebuilds(self):
        cluster = build_cluster()
        populate(cluster)
        node = cluster.servers["B"].node
        rebuilds_before = node.stats["full_rebuilds"]

        cluster.fail_node("B")
        cluster.recover_node("B")
        cluster.drain()

        assert node.stats["full_rebuilds"] > rebuilds_before
        assert node.stats["rebuilds_skipped"] == 0

    def test_wipe_on_recover_never_skips(self):
        cluster = build_cluster()
        populate(cluster)
        node = cluster.servers["B"].node

        # even a *clean* stop cannot save an index whose disk was replaced
        cluster.shutdown_node("B")
        cluster.recover_node("B", wipe=True)
        cluster.drain()

        assert node.stats["rebuilds_skipped"] == 0

    def test_restart_cycle_preserves_anti_entropy_correctness(self):
        """The adopted index must still drive exchanges correctly."""
        cluster = build_cluster()
        populate(cluster)
        cluster.shutdown_node("B")
        cluster.recover_node("B")
        cluster.drain()
        assert cluster.servers["B"].node.stats["rebuilds_skipped"] > 0
        cluster.converge()
        states = [
            {key: server.node.values_of(key) for key in cluster.key_universe()}
            for server in cluster.servers.values()
        ]
        assert states[0] == states[1] == states[2]


class TestStorageNodeRestarts:
    def build_node(self):
        node = StorageNode("A", DVVMechanism())
        node.attach_merkle_index(MerkleIndex(node.mechanism, fanout=16,
                                             depth=2, counters=node.stats))
        client = ClientSession("writer")
        for index in range(5):
            sibling = client.prepare_write(f"key-{index}", f"v{index}")
            node.local_write(f"key-{index}", None, sibling, client.client_id)
        return node, client

    def test_shutdown_marks_clean_and_restart_adopts(self):
        node, _client = self.build_node()
        digest_before = node.merkle_index.root_digest
        rebuilds_before = node.stats["full_rebuilds"]
        node.shutdown()
        node.restart()
        assert node.stats["rebuilds_skipped"] > 0
        assert node.stats["full_rebuilds"] == rebuilds_before
        assert node.merkle_index.root_digest == digest_before

    def test_mutation_after_shutdown_voids_cleanliness(self):
        node, client = self.build_node()
        node.shutdown()
        # a write that sneaks in after the flush invalidates the clean mark
        sibling = client.prepare_write("late", "surprise")
        node.local_write("late", None, sibling, client.client_id)
        rebuilds_before = node.stats["full_rebuilds"]
        node.restart()
        assert node.stats["rebuilds_skipped"] == 0
        assert node.stats["full_rebuilds"] > rebuilds_before

    def test_restart_without_shutdown_rebuilds(self):
        node, _client = self.build_node()
        rebuilds_before = node.stats["full_rebuilds"]
        node.restart()
        assert node.stats["rebuilds_skipped"] == 0
        assert node.stats["full_rebuilds"] > rebuilds_before
