"""Integration tests: vnode durability edges and per-range anti-entropy.

The vnode-scoped layout introduces failure granularities the whole-node model
could not express: a single partition's slice of a disk dying while the rest
survives, a crash-restart that only pays index rebuilds for occupied vnodes,
and a handoff landing on a node that already holds part of the moved range.
These tests drive them through the simulated cluster, and pin the two
structural properties of the refactor:

* the union of a node's per-vnode root digests equals the whole-node digest
  of a from-scratch rebuild, after randomized churn (any range-routing bug
  shows up as a digest mismatch);
* moving a vnode's keys between nodes re-hashes O(1) states, because the
  maintained fingerprints travel with the handoff.
"""

from __future__ import annotations

import random

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.kvstore.merkle_index import state_fingerprint
from repro.network import FixedLatency

from merkle_reference import MerkleTree, live_digest, rebuilt_digest

SERVERS = ("n1", "n2", "n3")


def build_cluster(seed: int, **kwargs) -> SimulatedCluster:
    kwargs.setdefault("server_ids", SERVERS)
    kwargs.setdefault("quorum", QuorumConfig(n=3, r=2, w=2))
    kwargs.setdefault("latency", FixedLatency(0.5))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("hint_replay_interval_ms", None)
    return SimulatedCluster(create("dvv"), seed=seed, **kwargs)


def assert_vnode_roots_match_rebuild(cluster: SimulatedCluster,
                                     context: str = "") -> None:
    """Per-range roots and their union both equal from-scratch rebuilds."""
    for server_id, server in sorted(cluster.servers.items()):
        index = server.node.merkle_index
        assert index is not None, f"{server_id} lost its index ({context})"
        union = {}
        for partition_id in index.partition_ids():
            expected = MerkleTree(
                {key: state_fingerprint(server.node.mechanism, state)
                 for key, state in server.node.storage.vnode_items(partition_id)},
            ).root_digest
            assert index.partition_root(partition_id) == expected, (
                f"{server_id} partition {partition_id}: per-range root "
                f"diverged from rebuild ({context})"
            )
            union.update(index.index_for(partition_id).snapshot())
        whole_node = rebuilt_digest(server.node)
        assert MerkleTree(union).root_digest == whole_node, (
            f"{server_id}: union of per-vnode digests diverged from the "
            f"whole-node digest ({context})"
        )
        assert live_digest(index) == whole_node


def populate(cluster: SimulatedCluster, count: int = 24) -> list:
    client = cluster.client("writer")
    keys = [f"key-{i}" for i in range(count)]
    for key in keys:
        client.put(key, f"{key}-v1")
    cluster.simulation.run_until_idle()
    return keys


class TestUnionDigestProperty:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_union_of_vnode_roots_survives_randomized_churn(self, seed):
        cluster = build_cluster(seed, hint_replay_interval_ms=20.0)
        rng = random.Random(seed * 7177)
        clients = [cluster.client(f"c{index}") for index in range(3)]
        keys = [f"key-{i}" for i in range(12)]
        crashed = None
        counter = 0

        for step in range(30):
            action = rng.choice(["put", "put", "put", "get", "crash",
                                 "recover", "sync"])
            if action == "put":
                client = rng.choice(clients)
                key = rng.choice(keys)
                counter += 1
                value = f"{client.client_id}-v{counter}"
                client.get(key, lambda _r, c=client, k=key, v=value: c.put(k, v))
            elif action == "get":
                rng.choice(clients).get(rng.choice(keys))
            elif action == "crash" and crashed is None:
                crashed = rng.choice(SERVERS)
                cluster.fail_node(crashed)
            elif action == "recover" and crashed is not None:
                if rng.random() < 0.3:
                    # partial disk loss: one vnode's slice dies
                    victim = rng.randrange(len(cluster.partition_map))
                    cluster.recover_node(crashed, wipe_partitions=[victim])
                else:
                    cluster.recover_node(crashed, wipe=rng.random() < 0.4)
                crashed = None
            elif action == "sync":
                cluster.run_anti_entropy_round(settle=False)
            cluster.run(until=cluster.simulation.now + rng.uniform(2.0, 10.0))
            assert_vnode_roots_match_rebuild(cluster,
                                             context=f"step {step}: {action}")

        if crashed is not None:
            cluster.recover_node(crashed)
        cluster.drain()
        cluster.converge(max_rounds=40)
        assert cluster.is_converged()
        assert_vnode_roots_match_rebuild(cluster, context="after convergence")


class TestVnodeDurabilityEdges:
    def test_wiping_one_vnode_spares_the_others(self):
        cluster = build_cluster(seed=5)
        keys = populate(cluster)
        node = cluster.servers["n2"].node
        occupied = [pid for pid in node.storage.vnode_ids()
                    if node.storage.vnode_len(pid) > 0]
        victim = occupied[0]
        lost = set(node.storage.vnode_keys(victim))
        survivors = set(node.storage.keys()) - lost
        assert lost and survivors

        cluster.fail_node("n2")
        cluster.recover_node("n2", wipe_partitions=[victim])
        assert set(node.storage.keys()) == survivors
        assert_vnode_roots_match_rebuild(cluster, context="after partial wipe")

        # anti-entropy notices exactly the dead range and repopulates it
        before = cluster.merkle_stats.partitions_differing
        cluster.converge(max_rounds=20)
        assert cluster.is_converged()
        assert cluster.merkle_stats.partitions_differing > before
        assert set(node.storage.keys()) == set(keys)

    def test_partial_wipe_confines_transfers_to_the_lost_range(self):
        cluster = build_cluster(seed=7)
        populate(cluster)
        cluster.converge(max_rounds=10)
        node = cluster.servers["n1"].node
        occupied = [pid for pid in node.storage.vnode_ids()
                    if node.storage.vnode_len(pid) > 0]
        victim = occupied[-1]
        lost = node.storage.vnode_keys(victim)

        cluster.fail_node("n1")
        cluster.recover_node("n1", wipe_partitions=[victim])
        transferred_before = cluster.merkle_stats.keys_transferred
        cluster.run_anti_entropy_round()
        # only the dead range's keys travel — both directions of the exchange
        # for one wiped range are bounded by 2x its key count per peer pair
        transferred = cluster.merkle_stats.keys_transferred - transferred_before
        assert 0 < transferred <= 2 * len(lost) * (len(SERVERS) - 1)

    def test_crash_restart_rebuilds_only_occupied_vnodes(self):
        cluster = build_cluster(seed=9)
        populate(cluster, count=8)
        node = cluster.servers["n3"].node
        occupied = sum(1 for pid in node.storage.vnode_ids()
                       if node.storage.vnode_len(pid) > 0)
        assert 0 < occupied < len(cluster.partition_map)
        before = node.stats["full_rebuilds"]
        cluster.fail_node("n3")
        cluster.recover_node("n3")            # restart, disk intact
        assert node.stats["full_rebuilds"] == before + occupied
        assert_vnode_roots_match_rebuild(cluster, context="after restart")


def flush_indexes(cluster: SimulatedCluster) -> None:
    """Hash every set-up write now, so only what follows is counted."""
    for server in cluster.servers.values():
        server.node.merkle_index.flush()


class TestHandoffFingerprintTransfer:
    def test_join_handoff_imports_digests_instead_of_hashing(self):
        cluster = build_cluster(seed=11)
        populate(cluster)
        cluster.converge(max_rounds=10)
        flush_indexes(cluster)
        totals = cluster.stat_totals()
        hashed_before = totals["keys_hashed"]
        imported_before = totals["fingerprints_imported"]

        handed_off = cluster.join_node("n4")
        cluster.simulation.run_until_idle()
        assert handed_off > 0

        flush_indexes(cluster)           # a deferred re-hash counts here
        totals = cluster.stat_totals()
        # the moved range's states arrive with maintained digests: nothing is
        # re-fingerprinted on either side
        assert totals["keys_hashed"] == hashed_before
        assert totals["fingerprints_imported"] - imported_before >= handed_off
        assert cluster.servers["n4"].node.stats["handoffs"] > 0
        assert_vnode_roots_match_rebuild(cluster, context="after join")

    def test_handoff_onto_a_node_already_holding_the_range_is_free(self):
        # decommissioning pushes each key to its remaining replica homes,
        # which (converged, n=3-of-3) already hold identical states: equal
        # fingerprints prove the merge is a no-op and no state is re-hashed
        cluster = build_cluster(seed=13)
        populate(cluster)
        cluster.converge(max_rounds=10)
        flush_indexes(cluster)
        totals = cluster.stat_totals()
        hashed_before = totals["keys_hashed"]

        cluster.decommission_node("n2")
        cluster.simulation.run_until_idle()

        flush_indexes(cluster)           # a deferred re-hash counts here
        totals = cluster.stat_totals()
        assert totals["keys_hashed"] == hashed_before
        assert_vnode_roots_match_rebuild(cluster, context="after decommission")
        cluster.converge(max_rounds=10)
        assert cluster.is_converged()
