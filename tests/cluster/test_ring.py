"""Unit tests for the consistent-hashing ring."""

from __future__ import annotations

import pytest

from repro.cluster import ConsistentHashRing, rebalance_plan
from repro.core import ConfigurationError


class TestMembership:
    def test_add_and_remove(self):
        ring = ConsistentHashRing(["A", "B"], virtual_nodes=8)
        assert set(ring.nodes()) == {"A", "B"}
        ring.add_node("C")
        assert "C" in ring
        ring.remove_node("B")
        assert set(ring.nodes()) == {"A", "C"}
        assert len(ring) == 2

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["A"])
        with pytest.raises(ConfigurationError):
            ring.add_node("A")

    def test_remove_unknown_is_noop(self):
        ring = ConsistentHashRing(["A"])
        ring.remove_node("Z")
        assert ring.nodes() == ["A"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(virtual_nodes=0)
        with pytest.raises(ConfigurationError):
            ConsistentHashRing([""])


class TestPlacement:
    def test_preference_list_has_distinct_nodes(self):
        ring = ConsistentHashRing(["A", "B", "C", "D"], virtual_nodes=16)
        for key in ("cart", "user:7", "another-key"):
            preference = ring.preference_list(key, 3)
            assert len(preference) == 3
            assert len(set(preference)) == 3

    def test_preference_list_caps_at_ring_size(self):
        ring = ConsistentHashRing(["A", "B"], virtual_nodes=8)
        assert len(ring.preference_list("k", 5)) == 2

    def test_placement_is_deterministic(self):
        ring_one = ConsistentHashRing(["A", "B", "C"], virtual_nodes=16)
        ring_two = ConsistentHashRing(["A", "B", "C"], virtual_nodes=16)
        for index in range(20):
            key = f"key-{index}"
            assert ring_one.preference_list(key, 3) == ring_two.preference_list(key, 3)

    def test_primary_is_first_of_preference_list(self):
        ring = ConsistentHashRing(["A", "B", "C"], virtual_nodes=16)
        assert ring.primary("k") == ring.preference_list("k", 3)[0]

    def test_empty_ring(self):
        ring = ConsistentHashRing()
        assert ring.preference_list("k", 2) == []
        with pytest.raises(ConfigurationError):
            ring.primary("k")
        with pytest.raises(ConfigurationError):
            ring.preference_list("k", 0)

    def test_removing_a_node_only_moves_its_keys(self):
        """Consistent hashing: keys not owned by the removed node keep their primary."""
        ring = ConsistentHashRing(["A", "B", "C", "D"], virtual_nodes=32)
        keys = [f"key-{i}" for i in range(200)]
        before = {key: ring.primary(key) for key in keys}
        ring.remove_node("D")
        moved = sum(1 for key in keys if ring.primary(key) != before[key])
        previously_on_d = sum(1 for key in keys if before[key] == "D")
        assert moved == previously_on_d

    def test_load_is_roughly_balanced(self):
        ring = ConsistentHashRing(["A", "B", "C", "D"], virtual_nodes=64)
        keys = [f"key-{i}" for i in range(2000)]
        histogram = ring.ownership_histogram(keys)
        assert set(histogram) == {"A", "B", "C", "D"}
        for count in histogram.values():
            assert 0.5 * 500 < count < 1.6 * 500


class TestRebalancePlan:
    def test_join_moves_only_keys_the_newcomer_owns(self):
        keys = [f"key-{i}" for i in range(100)]
        before = ConsistentHashRing(["A", "B", "C"], virtual_nodes=32)
        after = ConsistentHashRing(["A", "B", "C", "D"], virtual_nodes=32)
        moves = rebalance_plan(before, after, keys, replication=2)
        assert moves, "adding a node should move some keys"
        for move in moves:
            assert move.gained == ["D"] or "D" in move.owners_after
            # nothing is gained by nodes that were already owners
            assert not set(move.gained) & set(move.owners_before)
        # keys whose replica set is unchanged are not in the plan
        planned = {move.key for move in moves}
        for key in keys:
            if key not in planned:
                assert before.preference_list(key, 2) == after.preference_list(key, 2)

    def test_leave_reassigns_the_departed_nodes_keys(self):
        keys = [f"key-{i}" for i in range(100)]
        before = ConsistentHashRing(["A", "B", "C"], virtual_nodes=32)
        after = ConsistentHashRing(["A", "B"], virtual_nodes=32)
        moves = rebalance_plan(before, after, keys, replication=2)
        for move in moves:
            assert "C" in move.lost
            assert "C" not in move.owners_after

    def test_identical_rings_need_no_moves(self):
        keys = [f"key-{i}" for i in range(50)]
        ring_a = ConsistentHashRing(["A", "B"], virtual_nodes=16)
        ring_b = ConsistentHashRing(["A", "B"], virtual_nodes=16)
        assert rebalance_plan(ring_a, ring_b, keys, replication=2) == []

    def test_replication_validation(self):
        ring = ConsistentHashRing(["A"], virtual_nodes=4)
        with pytest.raises(ConfigurationError):
            rebalance_plan(ring, ring, ["k"], replication=0)


class TestHashMemo:
    """``_hash_position`` is memoised by token; the ring's answers are not."""

    def test_positions_equal_the_md5_definition_cold_and_memoised(self):
        import hashlib

        from repro.cluster import ring as ring_module

        ring = ConsistentHashRing(["A", "B", "C"], virtual_nodes=8)
        ring_module._hash_position.cache_clear()
        for _ in range(2):                      # second pass is served memoised
            for key in ("cart", "nœud-β", ""):
                expected = int.from_bytes(
                    hashlib.md5(f"key:{key}".encode("utf-8")).digest(), "big")
                assert ring.key_position(key) == expected
        info = ring_module._hash_position.cache_info()
        assert info.hits >= 3 and info.maxsize is not None    # used, and bounded

    def test_membership_changes_move_keys_whose_position_is_memoised(self):
        keys = [f"key-{i}" for i in range(200)]
        ring = ConsistentHashRing(["A", "B", "C"], virtual_nodes=16)
        before = {key: ring.preference_list(key, 2) for key in keys}
        ring.add_node("D")
        fresh = ConsistentHashRing(["A", "B", "C", "D"], virtual_nodes=16)
        after = {key: ring.preference_list(key, 2) for key in keys}
        assert after == {key: fresh.preference_list(key, 2) for key in keys}
        assert after != before
        ring.remove_node("D")
        assert {key: ring.preference_list(key, 2) for key in keys} == before
