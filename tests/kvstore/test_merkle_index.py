"""Unit tests for the incremental Merkle index (write-maintained hash trees)."""

from __future__ import annotations

import random

import pytest

from repro.clocks import DVVMechanism
from repro.core import ConfigurationError
from repro.kvstore import ClientSession
from repro.kvstore.merkle import MerkleTree, diff_keys, state_fingerprint
from repro.kvstore.merkle_index import MerkleIndex
from repro.kvstore.server import StorageNode


def indexed_node(node_id="A", fanout=16, depth=2):
    """A single-vnode node and the index under test: the node's own range
    tree (counting into the node's stats) at the default shape, else a
    standalone index of the given shape wired to the node's one vnode."""
    node = StorageNode(node_id, DVVMechanism())
    own = node.merkle_index
    if (fanout, depth) == (own.fanout, own.depth):
        return node, own.index_for(0)
    index = MerkleIndex(node.mechanism, fanout=fanout, depth=depth)
    node.storage.subscribe_vnode(0, index.on_state_changed)
    return node, index


def write(node, client, key, value):
    read = node.local_read(key)
    context = client.absorb_read(key, read, node.mechanism.name)
    sibling = client.prepare_write(key, value)
    node.local_write(key, context, sibling, client.client_id)


def rebuilt_digest(node, fanout=16, depth=2):
    return MerkleTree.for_node(node, fanout=fanout, depth=depth).root_digest


class TestIncrementalEqualsRebuild:
    def test_empty_index_matches_empty_tree(self):
        _node, index = indexed_node()
        assert index.root_digest == MerkleTree({}).root_digest

    def test_writes_deletes_and_merges_track_a_rebuild(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        rng = random.Random(42)
        keys = [f"key-{i}" for i in range(40)]
        for step in range(200):
            key = rng.choice(keys)
            if rng.random() < 0.15 and node.storage.has_key(key):
                node.storage.delete(key)
            else:
                write(node, client, key, f"v{step}")
            if step % 25 == 0:
                assert index.root_digest == rebuilt_digest(node)
        assert index.root_digest == rebuilt_digest(node)

    def test_remote_merge_updates_index(self):
        node_a, index_a = indexed_node("A")
        node_b, index_b = indexed_node("B")
        client = ClientSession("writer")
        write(node_a, client, "k", "v1")
        assert index_a.root_digest != index_b.root_digest
        node_b.local_merge("k", node_a.state_of("k"))
        assert index_a.root_digest == index_b.root_digest
        assert index_b.root_digest == rebuilt_digest(node_b)

    def test_different_shapes_validated(self):
        with pytest.raises(ConfigurationError):
            MerkleIndex(DVVMechanism(), fanout=1)
        with pytest.raises(ConfigurationError):
            MerkleIndex(DVVMechanism(), depth=0)


class TestLazyMaintenance:
    def test_burst_into_one_bucket_costs_one_rehash(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for step in range(10):
            write(node, client, "hot", f"v{step}")
        assert index.dirty_buckets() == 1
        before = node.stats["buckets_rehashed"]
        index.flush()
        assert node.stats["buckets_rehashed"] - before == 1
        assert index.dirty_buckets() == 0

    def test_noop_merge_does_not_dirty(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        index.flush()
        node.local_merge("k", node.state_of("k"))   # idempotent self-merge
        assert index.dirty_buckets() == 0

    def test_delete_of_unknown_key_is_noop(self):
        node, index = indexed_node()
        node.storage.delete("never-written")
        assert index.dirty_buckets() == 0

    def test_fingerprint_matches_state_fingerprint(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        assert index.fingerprint("k") == state_fingerprint(node.mechanism,
                                                           node.state_of("k"))
        assert index.fingerprint("missing") is None
        assert index.keys() == ["k"]


class TestHashOnRead:
    """A key is fingerprinted when a digest is read, not on every write."""

    def test_many_writes_to_one_key_between_flushes_cost_one_hash(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for step in range(25):
            write(node, client, "hot", f"v{step}")
        assert node.stats["keys_hashed"] == 0
        index.flush()
        assert node.stats["keys_hashed"] == 1
        assert index.root_digest == rebuilt_digest(node)
        assert node.stats["keys_hashed"] == 1

    def test_a_write_followed_by_a_drop_costs_nothing(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        node.storage.delete("k")
        assert index.key_count == 0
        assert index.flush() == 0
        assert node.stats["keys_hashed"] == 0
        assert node.stats["buckets_rehashed"] == 0
        assert index.root_digest == MerkleTree({}).root_digest

    def test_counting_reads_do_not_hash(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for i in range(5):
            write(node, client, f"key-{i}", "v")
        assert index.keys() == [f"key-{i}" for i in range(5)]
        assert index.key_count == 5
        assert node.stats["keys_hashed"] == 0

    def test_fingerprint_hashes_only_the_key_read(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for i in range(5):
            write(node, client, f"key-{i}", "v")
        assert index.fingerprint("key-2") == state_fingerprint(
            node.mechanism, node.state_of("key-2"))
        assert node.stats["keys_hashed"] == 1
        index.flush()                                   # the other four
        assert node.stats["keys_hashed"] == 5


class TestLiveDescentQueries:
    """What the Merkle exchange reads off the index, with no copy made."""

    def test_every_path_answers_like_a_from_scratch_tree(self):
        node, index = indexed_node(fanout=4, depth=2)
        client = ClientSession("writer")
        for i in range(8):
            write(node, client, f"key-{i}", f"v{i}")
        index.flush()
        full = MerkleTree.for_node(node, fanout=4, depth=2)
        assert index.child_digests(()) == full.child_digests(())
        for path, _digest in full.child_digests(()):
            assert index.child_digests(path) == full.child_digests(path)
            for leaf_path, _leaf_digest in full.child_digests(path):
                assert index.bucket_fingerprints(leaf_path) == \
                    full.bucket_fingerprints(leaf_path)

    def test_empty_paths_read_as_the_empty_tree(self):
        _node, index = indexed_node(fanout=4, depth=2)
        empty = MerkleTree({}, fanout=4, depth=2)
        assert index.child_digests(()) == empty.child_digests(())
        assert index.child_digests((3,)) == empty.child_digests((3,))
        assert index.bucket_fingerprints((3, 1)) == {}

    def test_digests_are_as_of_the_last_flush_fingerprints_are_live(self):
        node, index = indexed_node(fanout=4, depth=2)
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        before = index.root_digest                      # flushes
        write(node, client, "k", "v2")
        leaf = next(path for path, _ in index.child_digests(())
                    for path, _ in index.child_digests(path)
                    if index.bucket_fingerprints(path))
        assert index.digest_at(()) == before            # not yet re-hashed
        assert index.bucket_fingerprints(leaf) == {
            "k": state_fingerprint(node.mechanism, node.state_of("k"))}
        index.flush()
        assert index.digest_at(()) == rebuilt_digest(node, fanout=4, depth=2)


class TestSnapshots:
    def test_snapshot_is_a_frozen_merkle_tree(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for i in range(12):
            write(node, client, f"key-{i}", f"v{i}")
        snap = index.snapshot()
        assert isinstance(snap, MerkleTree)
        assert snap.root_digest == rebuilt_digest(node)
        frozen = snap.root_digest
        write(node, client, "key-0", "changed")
        assert snap.root_digest == frozen                 # snapshot unaffected
        assert index.root_digest != frozen                # index moved on
        assert index.root_digest == rebuilt_digest(node)

    def test_snapshot_supports_the_wire_protocol_queries(self):
        node, index = indexed_node(fanout=4, depth=2)
        client = ClientSession("writer")
        for i in range(8):
            write(node, client, f"key-{i}", f"v{i}")
        snap = index.snapshot()
        full = MerkleTree.for_node(node, fanout=4, depth=2)
        assert snap.digest_at(()) == full.digest_at(())
        for path, digest in snap.child_digests(()):
            assert digest == full.digest_at(path)
            for leaf_path, leaf_digest in snap.child_digests(path):
                assert leaf_digest == full.digest_at(leaf_path)
                assert snap.bucket_fingerprints(leaf_path) == \
                    full.bucket_fingerprints(leaf_path)

    def test_diff_of_snapshots_localises_divergence(self):
        node_a, index_a = indexed_node("A")
        node_b, index_b = indexed_node("B")
        client = ClientSession("writer")
        for i in range(20):
            write(node_a, client, f"key-{i}", f"v{i}")
            node_b.local_merge(f"key-{i}", node_a.state_of(f"key-{i}"))
        late = ClientSession("late")
        write(node_a, late, "key-7", "changed")
        assert diff_keys(index_a.snapshot(), index_b.snapshot()) == ["key-7"]

    def test_snapshot_flushes_pending_writes(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for i in range(6):
            write(node, client, f"key-{i}", f"v{i}")
        assert index.dirty_buckets() > 0
        snap = index.snapshot()
        assert index.dirty_buckets() == 0
        assert snap.root_digest == index.root_digest == rebuilt_digest(node)


class TestDurability:
    def test_restart_rebuilds_from_storage(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        for i in range(10):
            write(node, client, f"key-{i}", f"v{i}")
        digest = index.root_digest
        rebuilds_before = node.stats["full_rebuilds"]
        node.restart()
        assert node.stats["full_rebuilds"] == rebuilds_before + 1
        assert index.root_digest == digest
        assert index.root_digest == rebuilt_digest(node)

    def test_wipe_empties_index_with_the_disk(self):
        node, index = indexed_node()
        client = ClientSession("writer")
        write(node, client, "k", "v1")
        node.wipe()
        assert index.root_digest == MerkleTree({}).root_digest
        assert index.keys() == []
        # the replacement disk is tracked: new writes index normally
        write(node, client, "k2", "v2")
        assert index.root_digest == rebuilt_digest(node)

