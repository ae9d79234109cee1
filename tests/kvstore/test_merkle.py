"""Unit tests for the reference Merkle tree and its diff."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism
from repro.core import ConfigurationError
from repro.kvstore import ClientSession, SyncReplicatedStore
from repro.kvstore.merkle import MerkleTree, bucket_path, diff_keys, key_fingerprint


def populated_store(keys=10, servers=("A", "B", "C")):
    store = SyncReplicatedStore(DVVMechanism(), server_ids=servers)
    client = ClientSession("writer")
    for index in range(keys):
        key = f"key-{index}"
        client.get(store, key, server_id=servers[0])
        client.put(store, key, f"value-{index}", server_id=servers[0])
    return store


def compared_keys(tree):
    """Record every key ``diff_keys`` compares, via ``tree``'s lookups."""
    seen = []
    lookup = tree.fingerprint

    def fingerprint(key):
        seen.append(key)
        return lookup(key)

    tree.fingerprint = fingerprint
    return seen


class TestMerkleTree:
    def test_identical_states_identical_roots(self):
        store = populated_store()
        store.converge()
        tree_a = MerkleTree.for_node(store.node("A"))
        tree_b = MerkleTree.for_node(store.node("B"))
        assert tree_a.root_digest == tree_b.root_digest
        assert tree_a == tree_b

    def test_divergent_states_differ(self):
        store = populated_store()
        store.converge()
        client = ClientSession("late-writer")
        client.get(store, "key-3", server_id="A")
        client.put(store, "key-3", "changed", server_id="A")
        tree_a = MerkleTree.for_node(store.node("A"))
        tree_b = MerkleTree.for_node(store.node("B"))
        assert tree_a.root_digest != tree_b.root_digest

    def test_fingerprint_tracks_sibling_identity_not_mechanism(self):
        store = populated_store(keys=1)
        assert key_fingerprint(store.node("A"), "key-0") != key_fingerprint(store.node("B"), "key-0")
        store.converge()
        assert key_fingerprint(store.node("A"), "key-0") == key_fingerprint(store.node("B"), "key-0")

    def test_keys_and_fingerprint_queries(self):
        store = populated_store(keys=3)
        tree = MerkleTree.for_node(store.node("A"))
        assert tree.keys() == ["key-0", "key-1", "key-2"]
        assert tree.fingerprint("key-0") is not None
        assert tree.fingerprint("missing") is None

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            MerkleTree({}, fanout=1)
        with pytest.raises(ConfigurationError):
            MerkleTree({}, depth=0)

    def test_path_queries_for_wire_protocol(self):
        store = populated_store(keys=8)
        tree = MerkleTree.for_node(store.node("A"), fanout=4, depth=2)
        assert tree.digest_at(()) == tree.root_digest
        level1 = tree.child_digests(())
        assert [path for path, _ in level1] == [(0,), (1,), (2,), (3,)]
        # leaf buckets partition the key space
        all_keys = []
        for path, _digest in level1:
            for leaf_path, _leaf_digest in tree.child_digests(path):
                all_keys.extend(tree.bucket_fingerprints(leaf_path))
        assert sorted(all_keys) == tree.keys()
        with pytest.raises(ConfigurationError):
            tree.node_at((9,))
        with pytest.raises(ConfigurationError):
            tree.bucket_fingerprints(())  # root is not a leaf


class TestDiffKeys:
    def test_diff_finds_exactly_the_divergent_keys(self):
        store = populated_store(keys=20)
        store.converge()
        client = ClientSession("late-writer")
        for key in ("key-2", "key-15"):
            client.get(store, key, server_id="A")
            client.put(store, key, "changed-" + key, server_id="A")
        universe = store.node("A").storage.keys()
        tree_a = MerkleTree.for_node(store.node("A"), universe)
        tree_b = MerkleTree.for_node(store.node("B"), universe)
        assert sorted(diff_keys(tree_a, tree_b)) == ["key-15", "key-2"]

    def test_diff_skips_agreeing_buckets(self):
        store = populated_store(keys=50)
        store.converge()
        client = ClientSession("late-writer")
        client.get(store, "key-7", server_id="A")
        client.put(store, "key-7", "changed", server_id="A")
        universe = store.node("A").storage.keys()
        tree_a = MerkleTree.for_node(store.node("A"), universe)
        tree_b = MerkleTree.for_node(store.node("B"), universe)
        compared = compared_keys(tree_a)
        assert diff_keys(tree_a, tree_b) == ["key-7"]
        # far fewer per-key comparisons than the 50-key universe
        assert len(compared) < 20

    def test_identical_trees_compare_only_the_root(self):
        store = populated_store(keys=10)
        store.converge()
        tree_a = MerkleTree.for_node(store.node("A"))
        tree_b = MerkleTree.for_node(store.node("B"))
        compared = compared_keys(tree_a)
        assert diff_keys(tree_a, tree_b) == []
        assert compared == []

    def test_mismatched_shapes_rejected(self):
        tree_a = MerkleTree({}, fanout=4, depth=2)
        tree_b = MerkleTree({}, fanout=8, depth=2)
        with pytest.raises(ConfigurationError):
            diff_keys(tree_a, tree_b)

    def test_single_key_divergence_is_localised(self):
        """One divergent key among many: the diff descends into exactly one
        bucket and compares only that bucket's keys."""
        store = populated_store(keys=64)
        store.converge()
        client = ClientSession("late-writer")
        client.get(store, "key-11", server_id="A")
        client.put(store, "key-11", "changed", server_id="A")
        universe = store.node("A").storage.keys()
        tree_a = MerkleTree.for_node(store.node("A"), universe)
        tree_b = MerkleTree.for_node(store.node("B"), universe)
        compared = compared_keys(tree_a)
        assert diff_keys(tree_a, tree_b) == ["key-11"]
        # only the divergent bucket's keys were fingerprint-compared
        assert {bucket_path(key, 16, 2) for key in compared} == {
            bucket_path("key-11", 16, 2)}
        assert len(compared) < 64 / 4

    def test_tree_updates_after_key_deletion(self):
        """Deleting a key changes the tree and the diff localises exactly it."""
        store = populated_store(keys=12)
        store.converge()
        node_a = store.node("A")
        before = MerkleTree.for_node(node_a)
        node_a.storage.delete("key-5")
        after = MerkleTree.for_node(node_a)
        assert before.root_digest != after.root_digest
        assert after.fingerprint("key-5") is None
        assert "key-5" not in after.keys()
        assert diff_keys(before, after) == ["key-5"]
        # against a replica that still has the key, the deletion shows up as
        # exactly that key diverging
        tree_b = MerkleTree.for_node(store.node("B"))
        assert diff_keys(after, tree_b) == ["key-5"]

