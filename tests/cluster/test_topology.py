"""The topology layer: DC assignment, DC-aware placement, per-DC fallbacks."""

import pytest

from repro.cluster import (
    DEFAULT_DC,
    ConsistentHashRing,
    Membership,
    PlacementService,
    QuorumConfig,
    Topology,
)
from repro.core.exceptions import ConfigurationError


class TestTopology:
    def test_assignment_and_queries(self):
        topology = Topology({"n1": "east", "n2": "east", "n3": "west"})
        assert topology.dc_of("n1") == "east"
        assert topology.dc_of("n3") == "west"
        assert topology.datacenters() == ["east", "west"]
        assert topology.nodes_in("east") == ["n1", "n2"]
        assert topology.is_local("n1", "n2")
        assert not topology.is_local("n1", "n3")
        assert topology.spans_multiple_dcs
        assert "n1" in topology and "nope" not in topology
        assert len(topology) == 3

    def test_unknown_nodes_fall_into_default_dc(self):
        topology = Topology({"n1": "east"})
        assert topology.dc_of("stranger") == DEFAULT_DC

    def test_single_dc_constructor_spans_one_dc(self):
        topology = Topology.single_dc(["a", "b", "c"])
        assert not topology.spans_multiple_dcs
        assert topology.datacenters() == [DEFAULT_DC]

    def test_striped_deals_round_robin(self):
        topology = Topology.striped(["n1", "n2", "n3", "n4"], ["east", "west"])
        assert topology.nodes_in("east") == ["n1", "n3"]
        assert topology.nodes_in("west") == ["n2", "n4"]

    def test_reassign_moves_node(self):
        topology = Topology({"n1": "east"})
        topology.assign("n1", "west")
        assert topology.dc_of("n1") == "west"
        topology.forget("n1")
        assert topology.dc_of("n1") == DEFAULT_DC

    def test_empty_ids_rejected(self):
        topology = Topology()
        with pytest.raises(ConfigurationError):
            topology.assign("", "east")
        with pytest.raises(ConfigurationError):
            topology.assign("n1", "")

    def test_describe(self):
        topology = Topology({"n1": "east", "n2": "west"})
        assert topology.describe() == {"east": ["n1"], "west": ["n2"]}


class TestRingSpread:
    def test_spread_covers_every_group(self):
        ring = ConsistentHashRing(["n1", "n2", "n3", "n4", "n5", "n6"])
        topology = Topology.striped(["n1", "n2", "n3", "n4", "n5", "n6"],
                                    ["east", "west"])
        for key in ("cart", "user", "inv", "a", "b", "c"):
            spread = ring.preference_list_spread(key, 3, topology.dc_of)
            assert len(spread) == 3
            assert len(set(spread)) == 3
            assert {topology.dc_of(node) for node in spread} == {"east", "west"}

    def test_spread_degenerates_to_plain_walk_with_one_group(self):
        ring = ConsistentHashRing(["n1", "n2", "n3", "n4"])
        for key in ("cart", "user", "inv"):
            assert (ring.preference_list_spread(key, 3, lambda _n: "dc") ==
                    ring.preference_list(key, 3))

    def test_spread_first_node_matches_plain_walk(self):
        # The key's closest node always leads, spread or not.
        ring = ConsistentHashRing(["n1", "n2", "n3", "n4", "n5", "n6"])
        topology = Topology.striped(["n1", "n2", "n3", "n4", "n5", "n6"],
                                    ["east", "west"])
        for key in ("cart", "user", "inv", "x"):
            assert (ring.preference_list_spread(key, 3, topology.dc_of)[0]
                    == ring.preference_list(key, 1)[0])

    def test_spread_with_more_slots_than_groups_fills_from_ring_order(self):
        ring = ConsistentHashRing(["n1", "n2", "n3", "n4"])
        topology = Topology.striped(["n1", "n2", "n3", "n4"], ["east", "west"])
        spread = ring.preference_list_spread("k", 4, topology.dc_of)
        assert sorted(spread) == ["n1", "n2", "n3", "n4"]


class TestDcAwarePlacement:
    def _service(self, sloppy=True):
        servers = ["n1", "n2", "n3", "n4", "n5", "n6"]
        ring = ConsistentHashRing(servers)
        topology = Topology.striped(servers, ["east", "west"])
        membership = Membership(servers, topology=topology)
        config = QuorumConfig(n=3, r=2, w=2, sloppy=sloppy)
        return PlacementService(ring, membership, config,
                                topology=topology), topology

    def test_primaries_span_both_dcs(self):
        placement, topology = self._service()
        for key in ("cart", "user", "inv", "k1", "k2"):
            primaries = placement.primary_replicas(key)
            assert len(primaries) == 3
            assert {topology.dc_of(node) for node in primaries} == {"east", "west"}

    def test_extended_list_leads_with_primaries(self):
        placement, _ = self._service()
        for key in ("cart", "user", "inv"):
            extended = placement.extended_preference_list(key)
            assert extended[:3] == placement.primary_replicas(key)
            assert sorted(extended) == ["n1", "n2", "n3", "n4", "n5", "n6"]

    def test_fallbacks_prefer_coordinator_dc(self):
        placement, topology = self._service()
        key = "cart"
        primaries = placement.primary_replicas(key)
        for near in ("n1", "n2", "n3", "n4", "n5", "n6"):
            fallbacks = placement.fallbacks_for(key, exclude=primaries, near=near)
            near_dc = topology.dc_of(near)
            dcs = [topology.dc_of(node) for node in fallbacks]
            # Same-DC candidates first, then the rest; within each half the
            # ring order is preserved (stable partition).
            first_remote = next((i for i, dc in enumerate(dcs) if dc != near_dc),
                                len(dcs))
            assert all(dc != near_dc for dc in dcs[first_remote:])

    def test_fallbacks_without_near_keep_ring_order(self):
        placement, _ = self._service()
        key = "cart"
        primaries = placement.primary_replicas(key)
        no_near = placement.fallbacks_for(key, exclude=primaries)
        extended = placement.extended_preference_list(key)
        assert no_near == [n for n in extended if n not in primaries]

    def test_no_topology_placement_unchanged(self):
        # Without a topology the service behaves exactly as before.
        servers = ["n1", "n2", "n3", "n4", "n5", "n6"]
        ring = ConsistentHashRing(servers)
        plain = PlacementService(ring, Membership(servers),
                                 QuorumConfig(n=3, r=2, w=2))
        for key in ("cart", "user", "inv"):
            assert plain.primary_replicas(key) == ring.preference_list(key, 3)
            assert (plain.fallbacks_for(key, exclude=(), near="n1")
                    == plain.fallbacks_for(key, exclude=()))

    def test_single_dc_topology_is_identity(self):
        servers = ["n1", "n2", "n3", "n4"]
        ring = ConsistentHashRing(servers)
        topology = Topology.single_dc(servers)
        service = PlacementService(ring, Membership(servers, topology=topology),
                                   QuorumConfig(n=3, r=2, w=2), topology=topology)
        for key in ("cart", "user"):
            assert service.primary_replicas(key) == ring.preference_list(key, 3)


class TestAsyncioBackendTopology:
    def test_asyncio_cluster_is_dc_aware_and_converges(self):
        """The topology threads into the asyncio backend identically: DC-spread
        primaries, and a real-socket workload still converges under it."""
        import asyncio

        from repro.clocks import create
        from repro.kvstore.asyncio_cluster import AsyncioCluster

        servers = ("n1", "n2", "n3", "n4")
        topology = Topology.striped(servers, ["east", "west"])

        async def run():
            cluster = AsyncioCluster(
                create("dvv"), server_ids=servers,
                quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
                topology=topology,
                anti_entropy_interval_ms=40.0,
            )
            async with cluster:
                for key in ("cart", "user"):
                    primaries = cluster.placement.primary_replicas(key)
                    assert {topology.dc_of(node) for node in primaries} == \
                        {"east", "west"}
                    assert cluster.membership.dc_of(primaries[0]) == \
                        topology.dc_of(primaries[0])
                client = await cluster.client("c0")
                for index in range(4):
                    await client.put("cart", f"v{index}")
                    await client.get("cart")
                await cluster.converge(timeout_s=15.0)
                assert cluster.is_converged()
            return cluster

        asyncio.run(run())


class TestMembershipDc:
    def test_members_carry_their_dc(self):
        topology = Topology({"n1": "east", "n2": "west"})
        membership = Membership(["n1", "n2"], topology=topology)
        assert membership.dc_of("n1") == "east"
        assert membership.dc_of("n2") == "west"

    def test_explicit_dc_on_add_updates_topology(self):
        topology = Topology({"n1": "east"})
        membership = Membership(["n1"], topology=topology)
        membership.add("n9", dc="west")
        assert membership.dc_of("n9") == "west"
        assert topology.dc_of("n9") == "west"

    def test_a_node_marked_down_keeps_its_dc(self):
        topology = Topology({"n1": "east", "n2": "east", "n3": "west"})
        membership = Membership(["n1", "n2", "n3"], topology=topology)
        membership.mark_down("n1")
        assert membership.up_nodes() == ["n2", "n3"]
        assert membership.dc_of("n1") == "east"
        assert [membership.dc_of(node) for node in membership.up_nodes()] == \
            ["east", "west"]

    def test_without_topology_everyone_is_in_default_dc(self):
        membership = Membership(["n1", "n2"])
        assert membership.dc_of("n1") == DEFAULT_DC
        assert membership.dc_of("n2") == DEFAULT_DC
