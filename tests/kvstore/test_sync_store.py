"""Unit tests for the synchronous replicated store."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, ServerVVMechanism, create
from repro.cluster import ConsistentHashRing, Membership, PlacementService, QuorumConfig
from repro.core import ConfigurationError, StaleContextError
from repro.kvstore import ClientSession, SyncReplicatedStore


def make_store(mechanism=None, servers=("A", "B"), **kwargs):
    return SyncReplicatedStore(mechanism or DVVMechanism(), server_ids=servers, **kwargs)


class TestBasicOperations:
    def test_empty_get(self):
        store = make_store()
        client = ClientSession("c1")
        result = store.get("k", client)
        assert result.values == []
        assert result.context.key == "k"

    def test_put_then_get(self):
        store = make_store()
        client = ClientSession("c1")
        store.get("k", client)
        put_result = store.put("k", "v1", client, context=client.last_context("k"))
        assert put_result.coordinator in ("A", "B")
        assert store.values("k", put_result.coordinator) == ["v1"]

    def test_put_records_write_log(self):
        store = make_store()
        client = ClientSession("c1")
        client.get(store, "k")
        client.put(store, "k", "v1")
        assert len(store.write_log) == 1
        record = store.write_log.for_key("k")[0]
        assert record.client_id == "c1"
        assert record.sibling.value == "v1"

    def test_context_from_wrong_mechanism_rejected(self):
        dvv_store = make_store(DVVMechanism())
        other_store = make_store(ServerVVMechanism())
        client = ClientSession("c1")
        result = client.get(dvv_store, "k")
        with pytest.raises(StaleContextError):
            other_store.put("k", "v", client, context=result.context)

    def test_unknown_server_rejected(self):
        store = make_store()
        client = ClientSession("c1")
        with pytest.raises(ConfigurationError):
            store.get("k", client, server_id="Z")

    def test_requires_servers(self):
        with pytest.raises(ConfigurationError):
            SyncReplicatedStore(DVVMechanism(), server_ids=())


class TestReplication:
    def test_writes_stay_local_until_sync(self):
        store = make_store()
        client = ClientSession("c1")
        client.get(store, "k", server_id="A")
        client.put(store, "k", "v1", server_id="A")
        assert store.values("k", "A") == ["v1"]
        assert store.values("k", "B") == []
        store.sync_key("k", "A", "B")
        assert store.values("k", "B") == ["v1"]

    def test_replicate_on_write(self):
        store = make_store(replicate_on_write=True)
        client = ClientSession("c1")
        client.get(store, "k", server_id="A")
        client.put(store, "k", "v1", server_id="A")
        assert store.values("k", "B") == ["v1"]

    def test_sync_all_and_converge(self):
        store = make_store(servers=("A", "B", "C"))
        client = ClientSession("c1")
        for index, server in enumerate(("A", "B", "C")):
            fresh = ClientSession(f"client-{index}")
            fresh.get(store, "k", server_id=server)
            fresh.put(store, "k", f"v-{server}", server_id=server)
        assert not store.is_converged("k")
        rounds = store.converge("k")
        assert rounds >= 1
        assert store.is_converged("k")
        values = store.values("k", "A")
        assert sorted(values) == ["v-A", "v-B", "v-C"]

    def test_one_way_sync_leaves_the_source_unchanged(self):
        store = make_store()
        for server in ("A", "B"):
            writer = ClientSession(f"writer-{server}")
            writer.get(store, "k", server_id=server)
            writer.put(store, "k", f"v-{server}", server_id=server)
        store.sync_key("k", "A", "B", bidirectional=False)
        assert store.values("k", "A") == ["v-A"]
        assert sorted(store.values("k", "B")) == ["v-A", "v-B"]

    def test_one_pair_sync_leaves_a_three_way_divergence_open(self):
        store = make_store(servers=("A", "B", "C"))
        for server in ("A", "B", "C"):
            writer = ClientSession(f"writer-{server}")
            writer.get(store, "k", server_id=server)
            writer.put(store, "k", f"v-{server}", server_id=server)
        store.sync_key("k", "A", "B")
        assert store.is_converged("k") is False
        assert sorted(store.values("k", "A")) == sorted(store.values("k", "B")) == ["v-A", "v-B"]
        assert store.values("k", "C") == ["v-C"]

    def test_sync_all_of_one_key_leaves_other_keys_alone(self):
        store = make_store()
        client = ClientSession("c1")
        for key in ("k1", "k2"):
            client.get(store, key, server_id="A")
            client.put(store, key, f"{key}-v1", server_id="A")
        store.sync_all("k1")
        assert store.is_converged("k1")
        assert not store.is_converged("k2")
        assert store.values("k2", "B") == []

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "client_vv", "server_vv"])
    def test_full_replication_converges_in_one_round(self, mechanism_name):
        store = make_store(create(mechanism_name), servers=("A", "B", "C"))
        for server in ("A", "B", "C"):
            writer = ClientSession(f"writer-{server}")
            for key in ("k1", "k2"):
                writer.get(store, key, server_id=server)
                writer.put(store, key, f"{key}-{server}", server_id=server)
        assert store.converge() == 1
        assert store.is_converged()

    def test_converge_gives_up_after_max_rounds(self, monkeypatch):
        store = make_store()
        client = ClientSession("c1")
        client.get(store, "k", server_id="A")
        client.put(store, "k", "v1", server_id="A")
        rounds = []
        monkeypatch.setattr(store, "is_converged", lambda key=None: False)
        monkeypatch.setattr(store, "sync_all", lambda key=None: rounds.append(key))
        with pytest.raises(ConfigurationError):
            store.converge(max_rounds=3)
        assert rounds == [None, None, None]

    def test_one_server_store_is_converged_at_once(self):
        store = make_store(servers=("A",))
        client = ClientSession("c1")
        client.get(store, "k")
        client.put(store, "k", "v1")
        assert store.converge() == 1
        assert store.values("k", "A") == ["v1"]

    def test_sibling_counts(self):
        store = make_store()
        alice, bob = ClientSession("alice"), ClientSession("bob")
        alice.get(store, "k", server_id="A")
        bob.get(store, "k", server_id="A")
        alice.put(store, "k", "a", server_id="A")
        bob.put(store, "k", "b", server_id="A")
        counts = store.sibling_counts("k")
        assert counts["A"] == 2
        assert counts["B"] == 0


class TestPlacementIntegration:
    def make_placed_store(self):
        servers = ("n1", "n2", "n3", "n4")
        ring = ConsistentHashRing(servers, virtual_nodes=16)
        membership = Membership(servers)
        placement = PlacementService(ring, membership, QuorumConfig(n=2, r=1, w=1))
        return SyncReplicatedStore(DVVMechanism(), server_ids=servers, placement=placement)

    def test_keys_replicate_only_on_preference_list(self):
        store = self.make_placed_store()
        client = ClientSession("c1")
        client.get(store, "mykey")
        client.put(store, "mykey", "v1")
        store.converge("mykey")
        replicas = store.replicas_for("mykey")
        assert len(replicas) == 2
        for server_id in store.servers:
            values = store.values("mykey", server_id)
            if server_id in replicas:
                assert values == ["v1"]
            else:
                assert values == []

    def test_sync_all_keeps_every_key_on_its_preference_list(self):
        store = self.make_placed_store()
        client = ClientSession("c1")
        keys = [f"key-{i}" for i in range(12)]
        for key in keys:
            client.get(store, key)
            client.put(store, key, f"{key}-v1")
        store.sync_all()
        assert store.is_converged()
        for key in keys:
            replicas = store.replicas_for(key)
            for server_id in store.servers:
                expected = [f"{key}-v1"] if server_id in replicas else []
                assert store.values(key, server_id) == expected

    def test_coordinator_is_first_active_replica(self):
        store = self.make_placed_store()
        assert store.coordinator_for("mykey") == store.replicas_for("mykey")[0]


class TestMetadataAccounting:
    def test_metadata_totals_and_max(self):
        store = make_store()
        client = ClientSession("c1")
        client.get(store, "k", server_id="A")
        client.put(store, "k", "v1", server_id="A")
        assert store.metadata_entries() >= 1
        assert store.metadata_bytes() > 0
        assert store.max_metadata_entries_per_key() >= 1

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "client_vv", "server_vv"])
    def test_every_mechanism_runs_through_the_store(self, mechanism_name):
        store = make_store(create(mechanism_name))
        client = ClientSession("c1")
        client.get(store, "k")
        client.put(store, "k", "value")
        store.converge()
        assert store.is_converged()
