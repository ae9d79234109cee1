"""Unit tests for the vnode-scoped storage layout and per-range Merkle trees.

Covers the :class:`~repro.cluster.ring.PartitionMap` range arithmetic, the
:class:`~repro.kvstore.storage.NodeStorage` vnode manager (routing, per-vnode
wipe, hint coalescing), the :class:`~repro.kvstore.merkle_index.VnodeIndexSet`
facade, fingerprint import on handoff ingestion, and the rebalance-plan /
flush-counter bugfixes that rode along with the refactor.
"""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism
from repro.cluster import PartitionMap
from repro.cluster.ring import RING_BITS, rebalance_plan
from repro.core import ConfigurationError
from repro.kvstore import ClientSession, MerkleTree, NodeStorage, VnodeManager
from repro.kvstore.merkle import state_fingerprint
from repro.kvstore.merkle_index import MerkleIndex, VnodeIndexSet
from repro.kvstore.server import StorageNode


def write(node, client, key, value):
    read = node.local_read(key)
    context = client.absorb_read(key, read, node.mechanism.name)
    sibling = client.prepare_write(key, value)
    node.local_write(key, context, sibling, client.client_id)


def vnode_node(node_id="A", partitions=8):
    partition_map = PartitionMap(partitions)
    node = StorageNode(node_id, DVVMechanism(), partition_map=partition_map)
    index = VnodeIndexSet(node.mechanism, partition_map=partition_map,
                          counters=node.stats)
    node.attach_merkle_index(index)
    return node, index


class TestPartitionMap:
    def test_rejects_non_positive_count(self):
        with pytest.raises(ConfigurationError):
            PartitionMap(0)

    def test_partitions_tile_the_ring(self):
        partition_map = PartitionMap(7)
        previous_end = 0
        for partition_id in partition_map.partition_ids():
            start, end = partition_map.partition_range(partition_id)
            assert start == previous_end
            assert start < end
            previous_end = end
        assert previous_end == 1 << RING_BITS

    def test_partition_of_agrees_with_range_containment(self):
        partition_map = PartitionMap(16)
        from repro.cluster import ConsistentHashRing
        ring = ConsistentHashRing(["A"])
        for index in range(50):
            key = f"key-{index}"
            partition_id = partition_map.partition_of(key)
            start, end = partition_map.partition_range(partition_id)
            assert start <= ring.key_position(key) < end

    def test_unknown_partition_range_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionMap(4).partition_range(4)

    def test_len_and_ids(self):
        partition_map = PartitionMap(5)
        assert len(partition_map) == 5
        assert list(partition_map.partition_ids()) == [0, 1, 2, 3, 4]


class TestVnodeRouting:
    def test_keys_land_in_their_partitions_vnode(self):
        partition_map = PartitionMap(8)
        storage = NodeStorage(DVVMechanism(), partition_map=partition_map)
        node = StorageNode("A", DVVMechanism(), partition_map=partition_map)
        client = ClientSession("writer")
        keys = [f"key-{i}" for i in range(20)]
        for key in keys:
            write(node, client, key, f"{key}-v")
        for key in keys:
            partition_id = partition_map.partition_of(key)
            assert key in node.storage.vnode_keys(partition_id)
        # the flat API is preserved on top of the vnode layout
        assert node.storage.keys() == sorted(keys)
        assert len(node.storage) == len(keys)
        assert sum(node.storage.vnode_len(pid)
                   for pid in node.storage.vnode_ids()) == len(keys)
        assert storage.partition_count == 8

    def test_without_a_map_everything_is_one_vnode(self):
        storage = NodeStorage(DVVMechanism())
        assert storage.partition_count == 1
        assert storage.partition_of("anything") == 0
        assert list(storage.vnode_ids()) == [0]

    def test_vnode_manager_is_the_storage_type(self):
        assert VnodeManager is NodeStorage

    def test_wipe_vnode_drops_only_that_range(self):
        node, index = vnode_node()
        client = ClientSession("writer")
        keys = [f"key-{i}" for i in range(24)]
        for key in keys:
            write(node, client, key, f"{key}-v")
        occupied = [pid for pid in node.storage.vnode_ids()
                    if node.storage.vnode_len(pid) > 0]
        victim = occupied[0]
        lost = set(node.storage.vnode_keys(victim))
        survivors = set(keys) - lost
        dropped = node.storage.wipe_vnode(victim)
        assert dropped == len(lost)
        assert set(node.storage.keys()) == survivors
        # the listener stream kept the per-range trees consistent
        assert index.index_for(victim).keys() == []
        assert index.root_digest == MerkleTree.for_node(
            node, fanout=index.fanout, depth=index.depth).root_digest

    def test_wipe_vnode_loses_that_ranges_hints(self):
        partition_map = PartitionMap(8)
        node = StorageNode("A", DVVMechanism(), partition_map=partition_map)
        client = ClientSession("writer")
        keys = [f"key-{i}" for i in range(16)]
        for key in keys:
            write(node, client, key, "v")
            node.store_hint("B", key, node.state_of(key))
        victim = partition_map.partition_of(keys[0])
        in_range = [k for k in keys if partition_map.partition_of(k) == victim]
        before = node.pending_hints()
        node.storage.wipe_vnode(victim)
        assert node.pending_hints() == before - len(in_range)
        assert all(partition_map.partition_of(hint.key) != victim
                   for hint in node.hints_for("B"))


class TestHintCoalescing:
    def test_repeat_writes_merge_into_one_hint(self):
        node = StorageNode("A", DVVMechanism())
        writer_a, writer_b = ClientSession("ca"), ClientSession("cb")
        write(node, writer_a, "k", "v1")
        first = node.store_hint("B", "k", node.state_of("k"))
        write(node, writer_b, "k", "v2")
        second = node.store_hint("B", "k", node.state_of("k"))
        assert node.pending_hints() == 1
        assert second is first                     # merged in place
        assert second.hint_id == first.hint_id     # replay acks still match

    def test_replay_of_merged_hint_delivers_everything(self):
        mechanism = DVVMechanism()
        holder = StorageNode("A", mechanism)
        # two causally concurrent (blind) writes held for the same down target
        write(holder, ClientSession("ca"), "k", "v1")
        holder.store_hint("B", "k", holder.state_of("k"))
        write(holder, ClientSession("cb"), "k", "v2")
        holder.store_hint("B", "k", holder.state_of("k"))
        [hint] = holder.hints_for("B")
        target = StorageNode("B", mechanism)
        target.local_merge("k", hint.state, reason="hint")
        # one replay delivered the union of both held writes
        assert sorted(map(str, target.values_of("k"))) == \
            sorted(map(str, holder.values_of("k")))
        assert "v2" in set(map(str, target.values_of("k")))

    def test_different_keys_keep_separate_hints(self):
        node = StorageNode("A", DVVMechanism())
        client = ClientSession("writer")
        for key in ("k1", "k2"):
            write(node, client, key, "v")
            node.store_hint("B", key, node.state_of(key))
        assert node.pending_hints() == 2
        hint_ids = {hint.hint_id for hint in node.hints_for("B")}
        assert len(hint_ids) == 2


class TestFlushCounterRegression:
    def test_popping_an_emptied_bucket_is_not_counted_as_a_rehash(self):
        node = StorageNode("A", DVVMechanism())
        index = MerkleIndex(node.mechanism, counters=node.stats)
        node.attach_merkle_index(index)
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        index.flush()
        node.storage.delete("k")
        assert index.dirty_buckets() == 1
        before = node.stats["buckets_rehashed"]
        assert index.flush() == 0                  # nothing was hashed
        assert node.stats["buckets_rehashed"] == before
        assert index.root_digest == MerkleTree({}).root_digest


class TestVnodeIndexSet:
    def test_union_digest_equals_whole_node_rebuild(self):
        node, index = vnode_node()
        client = ClientSession("writer")
        for i in range(30):
            write(node, client, f"key-{i}", f"v{i}")
        assert index.root_digest == MerkleTree.for_node(
            node, fanout=index.fanout, depth=index.depth).root_digest
        assert index.keys() == node.storage.keys()
        assert index.key_count == len(node.storage)

    def test_partition_roots_match_per_range_rebuilds(self):
        node, index = vnode_node()
        client = ClientSession("writer")
        for i in range(30):
            write(node, client, f"key-{i}", f"v{i}")
        for partition_id in index.partition_ids():
            expected = MerkleTree(
                {key: state_fingerprint(node.mechanism, state)
                 for key, state in node.storage.vnode_items(partition_id)},
                fanout=index.fanout, depth=index.depth,
            ).root_digest
            assert index.partition_root(partition_id) == expected

    def test_a_write_moves_only_its_ranges_root(self):
        node, index = vnode_node()
        client = ClientSession("writer")
        for i in range(30):
            write(node, client, f"key-{i}", f"v{i}")
        roots_before = {pid: index.partition_root(pid)
                        for pid in index.partition_ids()}
        write(node, client, "key-0", "changed")
        mutated = index.partition_of("key-0")
        for partition_id in index.partition_ids():
            if partition_id == mutated:
                assert index.partition_root(partition_id) != \
                    roots_before[partition_id]
            else:
                assert index.partition_root(partition_id) == \
                    roots_before[partition_id]

    def test_empty_range_hashes_to_the_well_known_empty_root(self):
        _node, index = vnode_node()
        for partition_id in index.partition_ids():
            assert index.partition_root(partition_id) == index.empty_root_digest
        assert index.empty_root_digest == MerkleTree({}).root_digest

    def test_rebuild_pays_only_for_occupied_vnodes(self):
        node, index = vnode_node(partitions=16)
        client = ClientSession("writer")
        for i in range(6):
            write(node, client, f"key-{i}", f"v{i}")
        occupied = sum(1 for pid in index.partition_ids()
                       if node.storage.vnode_len(pid) > 0)
        assert 0 < occupied < 16
        before = node.stats["full_rebuilds"]
        node.restart()
        assert node.stats["full_rebuilds"] == before + occupied
        assert index.root_digest == MerkleTree.for_node(
            node, fanout=index.fanout, depth=index.depth).root_digest

    def test_fingerprint_import_skips_hashing(self):
        node, index = vnode_node()
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        state = node.state_of("k")
        fingerprint = index.fingerprint("k")
        assert fingerprint == state_fingerprint(node.mechanism, state)
        other, other_index = vnode_node("B")
        hashed_before = other.stats["keys_hashed"]
        other.storage.put_state("k", state, fingerprint=fingerprint)
        assert other.stats["keys_hashed"] == hashed_before
        assert other.stats["fingerprints_imported"] == 1
        assert other_index.fingerprint("k") == fingerprint
        assert other_index.root_digest == index.root_digest


class TestIngestHandoff:
    def test_new_key_adopts_the_senders_digest(self):
        sender, sender_index = vnode_node("A")
        receiver, receiver_index = vnode_node("B")
        client = ClientSession("writer")
        write(sender, client, "k", "v1")
        hashed_before = receiver.stats["keys_hashed"]
        receiver.ingest_handoff("k", sender.state_of("k"),
                                sender_index.fingerprint("k"))
        assert receiver.stats["keys_hashed"] == hashed_before
        assert receiver.stats["fingerprints_imported"] == 1
        assert receiver.stats["handoffs"] == 1
        assert receiver_index.root_digest == MerkleTree.for_node(
            receiver, fanout=receiver_index.fanout,
            depth=receiver_index.depth).root_digest

    def test_matching_fingerprint_is_a_noop(self):
        sender, sender_index = vnode_node("A")
        receiver, _ = vnode_node("B")
        client = ClientSession("writer")
        write(sender, client, "k", "v1")
        state = sender.state_of("k")
        fingerprint = sender_index.fingerprint("k")
        receiver.ingest_handoff("k", state, fingerprint)
        hashed = receiver.stats["keys_hashed"]
        imported = receiver.stats["fingerprints_imported"]
        receiver.ingest_handoff("k", state, fingerprint)   # duplicate delivery
        assert receiver.stats["keys_hashed"] == hashed
        assert receiver.stats["fingerprints_imported"] == imported
        assert receiver.stats["handoffs"] == 2

    def test_mismatched_fingerprint_falls_back_to_a_real_merge(self):
        sender, sender_index = vnode_node("A")
        receiver, receiver_index = vnode_node("B")
        writer_a, writer_b = ClientSession("ca"), ClientSession("cb")
        write(sender, writer_a, "k", "v1")
        write(receiver, writer_b, "k", "v2")   # concurrent local version
        receiver.ingest_handoff("k", sender.state_of("k"),
                                sender_index.fingerprint("k"))
        assert sorted(map(str, receiver.values_of("k"))) == ["v1", "v2"]
        assert receiver_index.root_digest == MerkleTree.for_node(
            receiver, fanout=receiver_index.fanout,
            depth=receiver_index.depth).root_digest

    def test_no_fingerprint_degrades_to_local_merge(self):
        sender, _ = vnode_node("A")
        receiver, _ = vnode_node("B")
        client = ClientSession("writer")
        write(sender, client, "k", "v1")
        hashed_before = receiver.stats["keys_hashed"]
        receiver.ingest_handoff("k", sender.state_of("k"), None)
        assert receiver.stats["handoffs"] == 1
        assert receiver.stats["keys_hashed"] == hashed_before + 1


class _FixedRing:
    """Stand-in ring returning scripted preference lists (priority order)."""

    def __init__(self, lists):
        self._lists = lists

    def preference_list(self, key, count):
        return list(self._lists[key][:count])


class TestRebalancePlanRegression:
    def test_priority_permutation_without_set_change_emits_no_move(self):
        before = _FixedRing({"k": ["A", "B", "C"]})
        after = _FixedRing({"k": ["B", "A", "C"]})   # permuted, same set
        assert rebalance_plan(before, after, ["k"], replication=3) == []

    def test_genuine_set_change_still_moves(self):
        before = _FixedRing({"k": ["A", "B", "C"]})
        after = _FixedRing({"k": ["B", "A", "D"]})
        [move] = rebalance_plan(before, after, ["k"], replication=3)
        assert move.gained == ["D"]
        assert move.lost == ["C"]

    def test_mixed_keys_only_changed_sets_move(self):
        before = _FixedRing({"stay": ["A", "B"], "move": ["A", "B"]})
        after = _FixedRing({"stay": ["B", "A"], "move": ["A", "C"]})
        moves = rebalance_plan(before, after, ["stay", "move"], replication=2)
        assert [move.key for move in moves] == ["move"]
