"""Audit path: cold-verifying the maintained Merkle index against storage.

The incremental index is only trustworthy if its cached per-key fingerprints
actually match what a from-scratch hash of the stored state would produce.
:meth:`VnodeIndexSet.audit` samples stored keys and recomputes each
fingerprint cold (bypassing every cache layer); these tests pin that a
healthy index audits clean, that an injected drift is detected and counted,
and that each sampled key is checked against its own partition's tree.
"""

from __future__ import annotations

import random

from repro.clocks import DVVMechanism
from repro.kvstore import ClientSession
from repro.kvstore.server import StorageNode
from repro.cluster import PartitionMap


def indexed_node(node_id="A"):
    """A single-vnode node and its own index."""
    node = StorageNode(node_id, DVVMechanism())
    return node, node.merkle_index


def vnode_node(node_id="A", partitions=8):
    """A node with ``partitions`` vnodes and its own per-range index."""
    node = StorageNode(node_id, DVVMechanism(),
                       partition_map=PartitionMap(partitions))
    return node, node.merkle_index


def write(node, client, key, value):
    read = node.local_read(key)
    context = client.absorb_read(key, read, node.mechanism.name)
    sibling = client.prepare_write(key, value)
    node.local_write(key, context, sibling)


def populate(node, count=20):
    client = ClientSession("writer")
    for index in range(count):
        write(node, client, f"key-{index}", f"v{index}")


class TestMerkleIndexAudit:
    def test_healthy_index_audits_clean(self):
        node, index = indexed_node()
        populate(node)
        report = index.audit(node.storage, sample_size=64)
        assert report == {"keys_checked": 20, "mismatches": 0}
        assert node.stats["audit_keys_checked"] == 20
        assert node.stats["audit_mismatches"] == 0

    def test_sample_size_bounds_the_walk(self):
        node, index = indexed_node()
        populate(node, count=20)
        report = index.audit(node.storage, sample_size=5,
                             rng=random.Random(7))
        assert report["keys_checked"] == 5
        assert report["mismatches"] == 0

    def test_injected_drift_is_detected_and_counted(self):
        node, index = indexed_node()
        populate(node)
        index.flush()
        index.index_for(0)._fingerprints["key-3"] = b"\x00" * 32  # simulate bit-rot
        report = index.audit(node.storage, sample_size=64)
        assert report["mismatches"] == 1
        assert node.stats["audit_mismatches"] == 1
        # counters accumulate across audits
        index.audit(node.storage, sample_size=64)
        assert node.stats["audit_mismatches"] == 2
        assert node.stats["audit_keys_checked"] == 40

    def test_audit_flushes_pending_mutations_first(self):
        node, index = indexed_node()
        populate(node)  # leaves dirty buckets until the next flush
        report = index.audit(node.storage, sample_size=64)
        assert report["mismatches"] == 0
        assert index.index_for(0).dirty_buckets() == 0


class TestVnodeAudit:
    def test_vnode_set_audits_clean_across_partitions(self):
        node, index = vnode_node()
        populate(node, count=30)
        # keys spread over several partition trees
        assert sum(1 for i in index.indexes.values() if i.key_count) > 1
        report = index.audit(node.storage, sample_size=64)
        assert report == {"keys_checked": 30, "mismatches": 0}

    def test_drift_in_one_partition_tree_is_caught(self):
        node, index = vnode_node()
        populate(node, count=30)
        index.flush()
        victim = index.index_for(index.partition_map.partition_of("key-5"))
        victim._fingerprints["key-5"] = b"\xff" * 32
        report = index.audit(node.storage, sample_size=64)
        assert report["mismatches"] == 1


class TestNodeAuditEntryPoint:
    def test_empty_node_reports_zeros(self):
        node = StorageNode("A", DVVMechanism())
        assert node.audit_merkle_index() == {"keys_checked": 0,
                                             "mismatches": 0}
        assert node.stats["audit_keys_checked"] == 0

    def test_node_delegates_to_its_index(self):
        node, _index = indexed_node()
        populate(node, count=8)
        report = node.audit_merkle_index(sample_size=4,
                                        rng=random.Random(11))
        assert report["keys_checked"] == 4
        assert node.stats["audit_keys_checked"] == 4
