"""Unit tests for membership and the placement service (preference lists, quorums)."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ConsistentHashRing,
    Membership,
    PlacementService,
    QuorumConfig,
)
from repro.core import ConfigurationError


class TestMembership:
    def test_add_and_status(self):
        membership = Membership(["A", "B"])
        assert membership.nodes() == ["A", "B"]
        assert membership.is_up("A")

    def test_mark_down_and_up(self):
        membership = Membership(["A", "B"])
        membership.mark_down("B")
        assert not membership.is_up("B")
        assert membership.up_nodes() == ["A"]
        membership.mark_up("B")
        assert membership.is_up("B")

    def test_unknown_node_errors(self):
        membership = Membership(["A"])
        with pytest.raises(ConfigurationError):
            membership.mark_down("Z")
        with pytest.raises(ConfigurationError):
            membership.mark_up("Z")

    def test_duplicate_add_rejected(self):
        membership = Membership(["A"])
        with pytest.raises(ConfigurationError):
            membership.add("A")

    def test_remove(self):
        membership = Membership(["A", "B"])
        membership.remove("A")
        assert "A" not in membership
        assert len(membership) == 1


class TestQuorumConfig:
    def test_defaults(self):
        config = QuorumConfig()
        assert (config.n, config.r, config.w) == (3, 2, 2)
        assert config.overlapping

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuorumConfig(n=0)
        with pytest.raises(ConfigurationError):
            QuorumConfig(n=3, r=4)
        with pytest.raises(ConfigurationError):
            QuorumConfig(n=3, w=0)

    def test_non_overlapping(self):
        assert not QuorumConfig(n=3, r=1, w=1).overlapping


class TestPlacementService:
    def make(self, nodes=("A", "B", "C", "D"), sloppy=True, n=3):
        ring = ConsistentHashRing(nodes, virtual_nodes=16)
        membership = Membership(nodes)
        config = QuorumConfig(n=n, r=min(2, n), w=min(2, n), sloppy=sloppy)
        return PlacementService(ring, membership, config), membership

    def test_active_replicas_all_up(self):
        placement, _ = self.make()
        replicas = placement.active_replicas("key")
        assert len(replicas) == 3
        assert replicas == placement.primary_replicas("key")

    def test_strict_quorum_shrinks_on_failure(self):
        placement, membership = self.make(sloppy=False)
        primary = placement.primary_replicas("key")
        membership.mark_down(primary[0])
        active = placement.active_replicas("key")
        assert len(active) == 2
        assert primary[0] not in active

    def test_sloppy_quorum_substitutes_fallback(self):
        placement, membership = self.make(sloppy=True)
        primary = placement.primary_replicas("key")
        membership.mark_down(primary[0])
        active = placement.active_replicas("key")
        assert len(active) == 3
        assert primary[0] not in active
        # the fallback is a node outside the primary list
        assert any(node not in primary for node in active)

    def test_coordinator_skips_down_nodes(self):
        placement, membership = self.make()
        primary = placement.primary_replicas("key")
        membership.mark_down(primary[0])
        assert placement.coordinator_for("key") != primary[0]

    def test_no_active_replicas_errors(self):
        placement, membership = self.make(nodes=("A",), n=1)
        membership.mark_down("A")
        with pytest.raises(ConfigurationError):
            placement.coordinator_for("key")

    def test_without_a_map_every_key_is_in_partition_0(self):
        placement, _ = self.make()
        assert len(placement.partition_map) == 1
        assert {placement.partition_map.partition_of(f"key-{i}")
                for i in range(100)} == {0}

    def test_the_coordinator_heads_the_primaries_and_the_extended_list(self):
        placement, _ = self.make()
        key = "key"
        primary = placement.primary_replicas(key)
        assert placement.coordinator_for(key) == primary[0]
        assert placement.extended_preference_list(key)[:len(primary)] == primary

    def test_extended_preference_list_walks_whole_ring(self):
        placement, _ = self.make()
        extended = placement.extended_preference_list("key")
        assert sorted(extended) == ["A", "B", "C", "D"]
        # Primaries come first, in ring order.
        assert extended[:3] == placement.primary_replicas("key")

    def test_extended_preference_list_ignores_membership(self):
        """Async mode discovers failures by deadline, not by the detector."""
        placement, membership = self.make()
        primary = placement.primary_replicas("key")
        membership.mark_down(primary[0])
        assert placement.extended_preference_list("key")[:3] == primary

    def test_fallbacks_exclude_contacted_nodes(self):
        placement, _ = self.make()
        extended = placement.extended_preference_list("key")
        fallbacks = placement.fallbacks_for("key", exclude=extended[:3])
        assert fallbacks == extended[3:]
        assert placement.fallbacks_for("key", exclude=extended) == []
