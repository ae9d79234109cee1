"""Unit tests for the message-passing simulated cluster."""

from __future__ import annotations

import pytest

from repro.clocks import ClientVVMechanism, DVVMechanism
from repro.cluster import QuorumConfig, ring
from repro.kvstore import ClientSession, ServerHost, SimulatedCluster, default_value_size
from repro.kvstore.protocol import anti_entropy, coordinator
from repro.kvstore.protocol.env import READ_REPAIR_BATCH_MS
from repro.network import FixedLatency, MessageType, SizeDependentLatency

from merkle_reference import MerkleTree, crowded_keys, diff_keys


def build_cluster(mechanism=None, **kwargs):
    kwargs.setdefault("server_ids", ("n1", "n2", "n3"))
    kwargs.setdefault("latency", FixedLatency(1.0))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("seed", 1)
    return SimulatedCluster(mechanism or DVVMechanism(), **kwargs)


class TestPartitionLayout:
    def test_every_server_shares_the_cluster_partition_map(self):
        cluster = build_cluster()
        assert len(cluster.partition_map) == ring.PARTITION_COUNT
        assert cluster.placement.partition_map is cluster.partition_map
        for server in cluster.servers.values():
            assert server.node.storage.partition_map is cluster.partition_map
            assert list(server.node.merkle_index.partition_ids()) == \
                list(range(ring.PARTITION_COUNT))


class TestBasicRequestFlow:
    def test_put_then_get(self):
        cluster = build_cluster()
        client = cluster.client("alice")
        outcomes = {}
        client.put("k", "v1", lambda result: outcomes.setdefault("put", result))
        cluster.run(until=50)
        client.get("k", lambda result: outcomes.setdefault("get", result))
        cluster.drain()
        assert outcomes["put"].coordinator in cluster.servers
        assert outcomes["get"].values == ["v1"]
        records = cluster.all_request_records()
        assert len(records) == 2
        assert all(record.ok for record in records)
        assert all(record.latency_ms > 0 for record in records)

    def test_read_modify_write_chain(self):
        cluster = build_cluster()
        client = cluster.client("alice")
        final = {}

        def third(result):
            final["values"] = result.values

        def second(_):
            client.get("counter", lambda r: client.put("counter", "2",
                                                       lambda _r: client.get("counter", third)))

        client.put("counter", "1", second)
        cluster.drain()
        assert final["values"] == ["2"]

    def test_client_reuse(self):
        cluster = build_cluster()
        assert cluster.client("alice") is cluster.client("alice")


class TestAsyncRequestMode:
    def build_async(self, **kwargs):
        kwargs.setdefault("server_ids", ("n1", "n2", "n3", "n4", "n5"))
        kwargs.setdefault("quorum", QuorumConfig(n=3, r=2, w=2, sloppy=True))
        kwargs.setdefault("replica_timeout_ms", 6.0)
        kwargs.setdefault("request_timeout_ms", 30.0)
        return build_cluster(**kwargs)

    def test_nonpositive_replica_timeout_rejected(self):
        from repro.core.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            build_cluster(replica_timeout_ms=0)

    def test_healthy_cluster_serves_without_deadline_firing(self):
        cluster = self.build_async()
        client = cluster.client("alice")
        outcomes = {}
        client.put("k", "v1", lambda result: outcomes.setdefault("put", result))
        cluster.run(until=50)
        client.get("k", lambda result: outcomes.setdefault("get", result))
        cluster.drain()
        assert outcomes["put"] is not None
        assert outcomes["get"].values == ["v1"]
        # All replica/request deadlines were disarmed by timely acks.
        stats = cluster.transport.stats
        assert stats.deadlines_set > 0
        assert stats.deadlines_fired == 0

    def test_crashed_primary_is_handed_off_even_after_quorum(self):
        """The quorum completes without the crashed primary, and the write
        still reaches a fallback with a hint naming it."""
        cluster = self.build_async()
        key = "k"
        victim = cluster.placement.primary_replicas(key)[2]
        cluster.fail_node(victim)
        client = cluster.client("alice")
        outcomes = {}
        client.put(key, "v1", lambda result: outcomes.setdefault("put", result))
        cluster.run(until=cluster.simulation.now + 100.0)
        assert outcomes["put"] is not None
        holders = [server_id for server_id, server in cluster.servers.items()
                   if server.node.storage.hints_for(victim)]
        assert holders and victim not in holders

    def test_strict_mode_records_failed_write(self):
        cluster = self.build_async(quorum=QuorumConfig(n=3, r=2, w=2, sloppy=False))
        key = "k"
        primaries = cluster.placement.primary_replicas(key)
        for victim in primaries[1:]:
            cluster.fail_node(victim)
        client = cluster.client("alice")
        results = []
        client.put(key, "v1", results.append)
        cluster.run(until=cluster.simulation.now + 200.0)
        assert results == [None]
        record = client.records[-1]
        assert not record.ok
        assert record.error in ("quorum_unreachable", "request_timeout")
        # Deadline accounting stays consistent: every set deadline either
        # fired, was cancelled, or is still pending — never both.
        stats = cluster.transport.stats
        assert stats.deadlines_fired + stats.deadlines_cancelled <= stats.deadlines_set

    def test_strict_non_primary_coordinator_does_not_self_vote(self):
        """A strict W=1 quorum must not be satisfied by a non-home
        coordinator's own copy when every primary is unreachable."""
        cluster = self.build_async(quorum=QuorumConfig(n=3, r=1, w=1, sloppy=False))
        key = "k"
        primaries = cluster.placement.primary_replicas(key)
        for victim in primaries:
            cluster.fail_node(victim)
        client = cluster.client("alice")
        results = []
        client.put(key, "v1", results.append)
        cluster.run(until=cluster.simulation.now + 800.0)
        assert results == [None]
        assert not client.records[-1].ok

    def test_client_fails_over_to_fallback_coordinator(self):
        cluster = self.build_async()
        key = "k"
        primaries = cluster.placement.primary_replicas(key)
        for victim in primaries:
            cluster.fail_node(victim)
        client = cluster.client("alice")
        results = []
        client.put(key, "v1", results.append)
        cluster.run(until=cluster.simulation.now + 800.0)
        assert results and results[0] is not None
        assert results[0].coordinator not in primaries


class TestNoMembershipOracle:
    """Coordinators and clients find dead nodes by deadline, never by asking
    the membership view (the asyncio backend has no such view to ask)."""

    def test_coordinator_contacts_a_primary_the_view_marks_down(self):
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=2, w=2))
        key = "k"
        primaries = cluster.placement.primary_replicas(key)
        # Down in the view only: the process still runs and still answers.
        cluster.membership.mark_down(primaries[1])
        client = cluster.client("alice")
        client.put(key, "v1")
        cluster.run(until=cluster.simulation.now + 50.0)
        assert cluster.servers[primaries[1]].node.values_of(key) == ["v1"]
        assert cluster.transport.stats.deadlines_fired == 0
        assert cluster.stat_totals()["hints_stored"] == 0

    def test_client_finds_a_crashed_coordinator_by_its_own_deadline(self):
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=2, w=2))
        key = "k"
        candidates = cluster.placement.extended_preference_list(key)
        cluster.fail_node(candidates[0])
        client = cluster.client("alice")
        results = []
        client.put(key, "v1", results.append)
        cluster.run(until=cluster.simulation.now + 150.0)
        assert results and results[0].coordinator == candidates[1]
        record = client.records[-1]
        assert record.ok
        assert record.latency_ms >= cluster.client_timeout_ms

    def test_strict_coordinator_holds_the_hint_for_a_crashed_primary(self):
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=2, w=2, sloppy=False))
        key = "k"
        candidates = cluster.placement.extended_preference_list(key)
        victim = candidates[2]
        cluster.fail_node(victim)
        client = cluster.client("alice")
        results = []
        client.put(key, "v1", results.append)
        cluster.run(until=cluster.simulation.now + 50.0)
        assert results and results[0].coordinator == candidates[0]
        holders = [server_id for server_id, server in cluster.servers.items()
                   if server.node.storage.hints_for(victim)]
        assert holders == [candidates[0]]


class TestReplicationAndQuorums:
    def test_write_reaches_quorum_replicas(self):
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=2, w=2))
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.drain()
        holding = [
            server_id for server_id, server in cluster.servers.items()
            if server.node.values_of("k") == ["v1"]
        ]
        assert len(holding) >= 2

    def test_read_repair_fixes_stale_replica(self):
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=3, w=1))
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.run(until=30)
        # Reading with R=3 forces the coordinator to notice and repair any
        # replica that missed the write.
        client.get("k")
        cluster.drain()
        holding = [
            server_id for server_id, server in cluster.servers.items()
            if server.node.values_of("k") == ["v1"]
        ]
        assert len(holding) == 3

    def test_anti_entropy_converges_without_reads(self):
        cluster = build_cluster(anti_entropy_interval_ms=20.0,
                                quorum=QuorumConfig(n=3, r=1, w=1))
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.run(until=500)
        cluster.drain()
        counts = cluster.sibling_counts("k")
        assert all(count == 1 for count in counts.values())

    def test_concurrent_clients_create_siblings(self):
        cluster = build_cluster()
        alice, bob = cluster.client("alice"), cluster.client("bob")
        # both read the empty key, then write concurrently
        alice.get("cart", lambda _1: None)
        bob.get("cart", lambda _2: None)
        cluster.run(until=30)
        alice.put("cart", ["apple"])
        bob.put("cart", ["banana"])
        cluster.run(until=80)
        observed = {}
        cluster.client("carol").get("cart", lambda r: observed.setdefault("values", r.values))
        cluster.drain()
        assert sorted(map(tuple, observed["values"])) == [("apple",), ("banana",)]


class TestFailuresAndMetrics:
    def test_failed_node_is_bypassed(self):
        cluster = build_cluster(quorum=QuorumConfig(n=2, r=1, w=1))
        victim = cluster.placement.coordinator_for("k")
        cluster.fail_node(victim)
        client = cluster.client("alice")
        outcome = {}
        client.put("k", "v1", lambda result: outcome.setdefault("coordinator", result.coordinator))
        cluster.drain()
        assert outcome["coordinator"] != victim
        cluster.recover_node(victim)
        assert cluster.membership.is_up(victim)

    def test_metadata_accounting(self):
        cluster = build_cluster()
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.drain()
        assert cluster.metadata_entries() >= 1
        assert cluster.metadata_bytes() > 0

    def test_larger_metadata_means_slower_requests(self):
        """The latency experiment's causal chain in miniature: same workload,
        size-dependent latency, bigger clocks, slower requests."""
        def run(mechanism, client_count=6):
            cluster = SimulatedCluster(
                mechanism,
                server_ids=("n1", "n2", "n3"),
                latency=SizeDependentLatency(base=FixedLatency(0.2), bytes_per_ms=300.0),
                anti_entropy_interval_ms=None,
                seed=3,
            )
            clients = [cluster.client(f"c{i}") for i in range(client_count)]
            for round_index in range(4):
                for client in clients:
                    client.get("hot", lambda _r, c=client, i=round_index:
                               c.put("hot", f"{c.client_id}:{i}"))
                cluster.run(until=cluster.simulation.now + 200)
            cluster.drain()
            records = [r for r in cluster.all_request_records() if r.operation == "put"]
            return sum(r.latency_ms for r in records) / len(records)

        dvv_latency = run(DVVMechanism())
        client_vv_latency = run(ClientVVMechanism())
        assert client_vv_latency > dvv_latency

    def test_value_size_estimation(self):
        assert default_value_size(b"1234") == 4
        assert default_value_size("abc") == len(repr("abc"))
        assert default_value_size({"a": 1}) > 0


def seed_converged(cluster, keys):
    client = cluster.client("seeder")
    for key in keys:
        client.put(key, f"{key}-v1")
    cluster.simulation.run_until_idle()
    return client


def write_at(server_id, key, value):
    """Divergence: a write applied at one replica only, never replicated."""
    def diverge(cluster):
        node = cluster.servers[server_id].node
        writer = ClientSession(f"late-{server_id}")
        context = writer.absorb_read(key, node.local_read(key), node.mechanism.name)
        node.local_write(key, context, writer.prepare_write(key, value))
    return diverge


def wipe(server_id):
    """Divergence: one replica crashes and comes back with an empty disk."""
    def diverge(cluster):
        cluster.fail_node(server_id)
        cluster.recover_node(server_id, wipe=True)
    return diverge


#: Keys sharing leaf buckets four at a time in ``diverged_cluster``, so
#: shipping a whole differing bucket instead of its divergent keys would be
#: visible.  All but the last two are seeded; those two share a bucket with
#: two seeded keys and are written on one side only.
CROWDED = crowded_keys(groups=7, per_bucket=4, partitions=2)
SEEDED, (ONLY_N1, ONLY_N2) = CROWDED[:-2], CROWDED[-2:]

DIVERGENCES = {
    "late_write": [write_at("n1", SEEDED[3], "late")],
    "key_on_one_side": [write_at("n1", ONLY_N1, "a"), write_at("n2", ONLY_N2, "b")],
    "wiped_peer": [wipe("n2")],
    "wiped_source": [wipe("n1")],
    "concurrent_write": [write_at("n1", SEEDED[5], "left"),
                         write_at("n2", SEEDED[5], "right")],
    "scattered_writes": [write_at("n1", SEEDED[i], "late") for i in range(0, 24, 5)]
                        + [write_at("n2", SEEDED[7], "late")],
}


def diverged_cluster(monkeypatch, divergence):
    """A converged two-range 3-node cluster with ``divergence`` applied to
    n1 / n2."""
    monkeypatch.setattr(ring, "PARTITION_COUNT", 2)
    cluster = build_cluster(hint_replay_interval_ms=None)
    assert len(cluster.partition_map) == 2
    seed_converged(cluster, SEEDED)
    cluster.run_anti_entropy_round()
    assert cluster.is_converged()
    for diverge in DIVERGENCES[divergence]:
        diverge(cluster)
    return cluster


def reference_diff(cluster, left="n1", right="n2"):
    return diff_keys(MerkleTree.for_node(cluster.servers[left].node),
                     MerkleTree.for_node(cluster.servers[right].node))


class TestMerkleAntiEntropyProtocol:
    def test_clean_exchange_costs_one_digest_roundtrip(self):
        cluster = build_cluster(hint_replay_interval_ms=None)
        seed_converged(cluster, [f"k{i}" for i in range(10)])
        assert cluster.is_converged()
        sent_before = cluster.transport.stats.sent
        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        assert cluster.merkle_stats.exchanges_clean == 1
        # root request + "nothing differs" response, no key states
        assert cluster.transport.stats.sent - sent_before == 2
        assert cluster.transport.stats.per_type.get("merkle_key_states", 0) == 0

    def test_diverged_exchange_transfers_only_divergent_keys(self):
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=1, w=1, sloppy=False),
                                hint_replay_interval_ms=None)
        client = seed_converged(cluster, [f"k{i}" for i in range(12)])
        cluster.run_anti_entropy_round()
        assert cluster.is_converged()
        # diverge one key via a write that only reaches the coordinator's
        # side: partition the other two servers away first
        key = next(k for k in cluster.key_universe()
                   if cluster.placement.coordinator_for(k) == "n1")
        cluster.partitions.partition({"n1"}, {"n2", "n3"})
        client.get(key, lambda _r: client.put(key, "diverged"))
        cluster.simulation.run_until_idle()
        cluster.partitions.heal()

        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        assert cluster.servers["n2"].node.stats["merkle_syncs"] >= 1
        # ordinary merges on n2 were not inflated by the merkle transfer
        assert "diverged" in map(str, cluster.servers["n2"].node.values_of(key))
        assert cluster.merkle_stats.keys_transferred <= 2  # one key, both directions

    @pytest.mark.parametrize("divergence", sorted(DIVERGENCES))
    def test_exchange_ships_exactly_the_divergent_keys(self, monkeypatch, divergence):
        """The keys the source names in its MERKLE_KEY_STATES (states it
        sends plus keys it asks back), together with the keys the target
        pushes unasked from ranges the source advertised no root for, are
        exactly what the from-scratch reference diff of the two replicas
        says differs — each key once."""
        cluster = diverged_cluster(monkeypatch, divergence)
        expected = reference_diff(cluster)
        assert expected

        cluster.transport.trace_enabled = True
        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        (digests,) = [message for message in cluster.transport.trace
                      if message.msg_type is MessageType.MERKLE_PARTITION_DIGESTS]
        advertised = set(digests.payload["roots"])
        named = []
        for message in cluster.transport.trace:
            if message.msg_type is not MessageType.MERKLE_KEY_STATES:
                continue
            if message.sender == "n1":
                named.extend(set(message.payload["states"]) | set(message.payload["want"]))
            else:
                named.extend(key for key in message.payload["states"]
                             if cluster.partition_map.partition_of(key) not in advertised)
        assert sorted(named) == sorted(expected)

    @pytest.mark.parametrize("divergence", sorted(DIVERGENCES))
    def test_one_exchange_converges_the_pair(self, monkeypatch, divergence):
        """States flow both ways in one exchange: afterwards the reference
        diff of the pair is empty and both hold the same values."""
        cluster = diverged_cluster(monkeypatch, divergence)
        divergent = reference_diff(cluster)
        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        assert reference_diff(cluster) == []
        left, right = cluster.servers["n1"].node, cluster.servers["n2"].node
        for key in divergent:
            assert sorted(map(str, left.values_of(key))) == \
                sorted(map(str, right.values_of(key)))

    def test_concurrent_writes_both_survive_the_exchange(self, monkeypatch):
        cluster = diverged_cluster(monkeypatch, "concurrent_write")
        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        for server_id in ("n1", "n2"):
            assert sorted(map(str, cluster.servers[server_id].node.values_of(SEEDED[5]))) == \
                ["left", "right"]

    def test_exchange_after_healing_is_clean(self, monkeypatch):
        """A pair one exchange just healed has nothing left to ship."""
        cluster = diverged_cluster(monkeypatch, "scattered_writes")
        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        clean_before = cluster.merkle_stats.exchanges_clean
        transferred_before = cluster.merkle_stats.keys_transferred
        states_before = cluster.transport.stats.per_type.get("merkle_key_states", 0)
        cluster.start_exchange("n2", "n1")
        cluster.simulation.run_until_idle()
        assert cluster.merkle_stats.exchanges_clean == clean_before + 1
        assert cluster.merkle_stats.keys_transferred == transferred_before
        assert cluster.transport.stats.per_type.get("merkle_key_states", 0) == states_before

    def test_daemon_ticks_start_merkle_exchanges(self):
        """Every exchange the periodic daemon starts is a Merkle exchange."""
        cluster = build_cluster(anti_entropy_interval_ms=20.0, hint_replay_interval_ms=None)
        client = cluster.client("alice")
        for i in range(6):
            client.put(f"k{i}", f"v{i}")
        cluster.run(until=200)
        cluster.drain()
        # one exchange per 20 ms tick up to t=200, and no other exchange
        assert cluster.merkle_stats.exchanges_started == 10

    def test_sync_batching_splits_large_transfers(self, monkeypatch):
        monkeypatch.setattr(anti_entropy, "SYNC_BATCH_SIZE", 2)
        cluster = build_cluster(hint_replay_interval_ms=None)
        client = seed_converged(cluster, [f"k{i}" for i in range(8)])
        cluster.run_anti_entropy_round()
        cluster.partitions.partition({"n1"}, {"n2", "n3"})
        for key in [k for k in cluster.key_universe()
                    if cluster.placement.coordinator_for(k) == "n1"][:5]:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-late"))
        cluster.simulation.run_until_idle()
        cluster.partitions.heal()
        sent_before = cluster.transport.stats.per_type.get("merkle_key_states", 0)
        cluster.start_exchange("n1", "n2")
        cluster.simulation.run_until_idle()
        sent = cluster.transport.stats.per_type.get("merkle_key_states", 0) - sent_before
        if cluster.merkle_stats.keys_transferred > 2:
            assert sent >= 2  # batches of two keys each


class TestBatchedReadRepair:
    def stale_replica_setup(self, keys=12):
        """Converge, crash n3, write late versions, restart n3 stale."""
        cluster = build_cluster(quorum=QuorumConfig(n=3, r=3, w=2),
                                hint_replay_interval_ms=None)
        client = seed_converged(cluster, [f"k{i}" for i in range(keys)])
        cluster.run_anti_entropy_round()
        assert cluster.is_converged()
        # Keys coordinated by n1 while everyone is up: reads after recovery
        # route through n1 again, so n1 is the node whose repair queue we
        # observe (a key coordinated by n3 would repair n3 locally instead).
        stale_keys = [key for key in cluster.key_universe()
                      if cluster.placement.coordinator_for(key) == "n1"]
        cluster.fail_node("n3")
        for key in stale_keys:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-late"))
        cluster.simulation.run_until_idle()
        cluster.recover_node("n3")   # restart: pre-crash (stale) state kept
        return cluster, client, stale_keys

    def test_repairs_to_one_replica_coalesce_into_one_message(self):
        cluster, client, stale_keys = self.stale_replica_setup()
        assert len(stale_keys) >= 2, "setup needs several keys on one coordinator"
        before = cluster.transport.stats.per_type.get("read_repair", 0)
        for key in stale_keys:
            client.get(key)   # R=3 reads notice n3's stale copies
        cluster.drain()
        messages = cluster.transport.stats.per_type.get("read_repair", 0) - before
        coordinator = cluster.servers["n1"]
        repaired = coordinator.protocol.coordinator.read_repair_stats.replicas_repaired
        assert repaired >= len(stale_keys)
        # Coalescing is the point: strictly fewer messages than repaired
        # (key, replica) pairs, mirroring MERKLE_KEY_STATES batching.
        assert 0 < messages < repaired
        assert coordinator.protocol.coordinator.read_repair_stats.batches_sent == messages
        for key in stale_keys:
            assert f"{key}-late" in map(str, cluster.servers["n3"].node.values_of(key))

    def test_byte_accounting_preserved(self):
        cluster, client, stale_keys = self.stale_replica_setup()
        stats = cluster.transport.stats
        before_sent = stats.bytes_per_type.get("read_repair", 0)
        before_delivered = stats.delivered_bytes_per_type.get("read_repair", 0)
        for key in stale_keys:
            client.get(key)
        cluster.drain()
        sent = stats.bytes_per_type.get("read_repair", 0) - before_sent
        delivered = stats.delivered_bytes_per_type.get("read_repair", 0) - before_delivered
        assert sent > 0
        assert delivered == sent      # healed cluster: nothing dropped
        assert stats.bytes_for("read_repair") == stats.attempted_bytes_for("read_repair")

    def test_default_window_holds_the_repair_then_sends_it(self):
        cluster, client, stale_keys = self.stale_replica_setup()
        key = stale_keys[0]
        before = cluster.transport.stats.per_type.get("read_repair", 0)
        client.get(key)
        # The replica replies arrive after three 1ms hops and queue the
        # repair; it goes out when the coalescing window that opens then
        # closes.
        cluster.run(until=cluster.simulation.now + 3.5)
        queue = cluster.servers["n1"].protocol.coordinator.repair_queue
        assert {target: list(states) for target, states in queue.items()} == {"n3": [key]}
        assert cluster.transport.stats.per_type.get("read_repair", 0) == before
        cluster.run(until=cluster.simulation.now + READ_REPAIR_BATCH_MS)
        assert not queue
        assert cluster.transport.stats.per_type.get("read_repair", 0) == before + 1
        cluster.drain()
        assert f"{key}-late" in map(str, cluster.servers["n3"].node.values_of(key))

    def test_full_batch_flushes_without_waiting(self, monkeypatch):
        cluster, client, stale_keys = self.stale_replica_setup()
        # every queued repair is a full batch
        monkeypatch.setattr(coordinator, "SYNC_BATCH_SIZE", 1)
        before = cluster.transport.stats.per_type.get("read_repair", 0)
        for key in stale_keys:
            client.get(key)
        cluster.drain()
        messages = cluster.transport.stats.per_type.get("read_repair", 0) - before
        assert messages >= len(stale_keys)   # no coalescing at batch size 1

    def test_crash_during_window_drops_queued_repairs(self):
        """A coordinator crashing mid-window must not emit repairs while down:
        the queue is process memory and dies with the crash."""
        cluster, client, stale_keys = self.stale_replica_setup()
        for key in stale_keys:
            client.get(key)
        # Run just long enough for the replica replies to arrive (three 1ms
        # hops) and the repairs to queue, but not for the 2ms coalescing
        # window that starts at reply time to close.
        cluster.run(until=cluster.simulation.now + 3.5)
        coordinator = cluster.servers["n1"]
        assert coordinator.protocol.coordinator.repair_queue, "setup: repairs should be queued"
        before = cluster.transport.stats.per_type.get("read_repair", 0)
        cluster.fail_node("n1")
        cluster.run(until=cluster.simulation.now + 20.0)
        assert cluster.transport.stats.per_type.get("read_repair", 0) == before
        assert not coordinator.protocol.coordinator.repair_queue
        cluster.recover_node("n1", wipe=True)
        cluster.drain()
        assert cluster.transport.stats.per_type.get("read_repair", 0) == before


class TestReplicaDeadlines:
    def build(self):
        return build_cluster(server_ids=("n1", "n2", "n3", "n4", "n5"),
                             quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
                             replica_timeout_ms=6.0, request_timeout_ms=30.0)

    def test_acks_feed_the_ewma(self):
        cluster = self.build()
        client = cluster.client("alice")
        for i in range(6):
            client.put("k", f"v{i}")
            cluster.run(until=cluster.simulation.now + 40.0)
        observed = [server.protocol.latency.ewma
                    for server in cluster.servers.values()
                    if server.protocol.latency.ewma]
        assert observed, "coordinators should have recorded ack latencies"
        for ewma_map in observed:
            for latency in ewma_map.values():
                assert latency > 0

    def test_crashed_primary_still_handed_off(self):
        """Warm EWMAs must not break the sloppy-quorum handoff path."""
        cluster = self.build()
        key = "k"
        client = cluster.client("alice")
        for i in range(4):
            client.put(key, f"warm{i}")
            cluster.run(until=cluster.simulation.now + 40.0)
        victim = cluster.placement.primary_replicas(key)[2]
        cluster.fail_node(victim)
        outcomes = {}
        client.put(key, "v1", lambda result: outcomes.setdefault("put", result))
        cluster.run(until=cluster.simulation.now + 100.0)
        assert outcomes["put"] is not None
        holders = [server_id for server_id, server in cluster.servers.items()
                   if server.node.storage.hints_for(victim)]
        assert holders and victim not in holders


class TestHintedHandoff:
    def test_write_to_down_primary_stores_hint(self):
        cluster = build_cluster(hint_replay_interval_ms=None)
        # hinted handoff disabled => no hints
        cluster.fail_node("n3")
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.simulation.run_until_idle()
        assert sum(s.node.storage.pending_hints() for s in cluster.servers.values()) == 0

        cluster = build_cluster(hint_replay_interval_ms=40.0)
        cluster.fail_node("n3")
        client = cluster.client("alice")
        client.put("k", "v1")
        # n3 is the first candidate coordinator for "k": the client fails
        # over on its 75 ms deadline, and the new coordinator holds the hint
        # when n3's 10 ms replica deadline fires.
        cluster.run(until=cluster.simulation.now + 120.0)
        holders = [s for s in cluster.servers.values() if s.node.storage.pending_hints()]
        assert holders
        assert holders[0].node.stats["hints_stored"] == 1
        assert holders[0].node.storage.hints_for("n3")[0].key == "k"

    def test_hint_replayed_on_recovery(self):
        cluster = build_cluster(hint_replay_interval_ms=30.0)
        cluster.fail_node("n3")
        client = cluster.client("alice")
        client.put("k", "v1")
        # client failover off n3, then the replica deadline (see above)
        cluster.run(until=cluster.simulation.now + 120.0)
        assert "v1" not in map(str, cluster.servers["n3"].node.values_of("k"))
        cluster.recover_node("n3")
        cluster.run(until=cluster.simulation.now + 60.0)
        assert list(map(str, cluster.servers["n3"].node.values_of("k"))) == ["v1"]
        assert cluster.servers["n3"].node.stats["hint_replays"] == 1
        # acked hints are cleared everywhere
        assert sum(s.node.storage.pending_hints() for s in cluster.servers.values()) == 0

    def test_recovery_replays_hints_without_waiting_for_a_tick(self, monkeypatch):
        """The daemon would not tick within the run: the recovery itself
        replays the hints held for the node, 0.1 ms after it."""
        cluster = build_cluster(hint_replay_interval_ms=100_000.0)
        cluster.fail_node("n3")
        cluster.client("alice").put("k", "v1")
        cluster.run(until=cluster.simulation.now + 120.0)
        holders = sorted(server_id for server_id, server in cluster.servers.items()
                         if server.node.storage.hints_for("n3"))
        assert holders
        replays = []
        replay_hints = ServerHost.replay_hints

        def recording_replay(server):
            replays.append((server.node_id, cluster.simulation.now))
            return replay_hints(server)

        monkeypatch.setattr(ServerHost, "replay_hints", recording_replay)
        recovered_at = cluster.simulation.now
        cluster.recover_node("n3")
        cluster.run(until=recovered_at + 10.0)
        assert replays == [(holder, pytest.approx(recovered_at + 0.1))
                           for holder in holders]
        assert list(map(str, cluster.servers["n3"].node.values_of("k"))) == ["v1"]
        assert cluster.servers["n3"].node.stats["hint_replays"] == 1
        assert sum(s.node.storage.pending_hints() for s in cluster.servers.values()) == 0


class TestElasticMembership:
    def test_join_node_receives_handoff(self):
        cluster = build_cluster(hint_replay_interval_ms=None)
        seed_converged(cluster, [f"k{i}" for i in range(10)])
        handed_off = cluster.join_node("n4")
        cluster.simulation.run_until_idle()
        joiner = cluster.servers["n4"]
        assert handed_off > 0
        assert joiner.node.stats["handoffs"] > 0
        assert len(joiner.node.storage.keys()) > 0
        # the joiner serves reads for keys it now coordinates
        assert "n4" in cluster.ring.nodes()
        assert cluster.membership.is_up("n4")
        # every key the joiner is now a primary home for was pushed to it
        for key in cluster.key_universe():
            if "n4" in cluster.placement.primary_replicas(key):
                assert cluster.servers["n4"].node.storage.has_key(key)

    def test_duplicate_join_rejected(self):
        cluster = build_cluster()
        with pytest.raises(Exception):
            cluster.join_node("n1")

    def test_decommission_preserves_sole_copies(self):
        # W=1 without replication fan-out beyond the coordinator would lose
        # data on departure if the node did not hand its keys off.
        cluster = build_cluster(quorum=QuorumConfig(n=1, r=1, w=1, sloppy=False),
                                hint_replay_interval_ms=None)
        client = seed_converged(cluster, [f"k{i}" for i in range(12)])
        victim = "n2"
        sole_keys = [key for key in cluster.key_universe()
                     if cluster.servers[victim].node.storage.has_key(key)]
        handed_off = cluster.decommission_node(victim)
        cluster.simulation.run_until_idle()
        assert victim not in cluster.servers
        assert victim not in cluster.ring.nodes()
        assert victim not in cluster.membership
        if sole_keys:
            assert handed_off >= len(sole_keys)
            for key in sole_keys:
                holders = [s for s in cluster.servers.values()
                           if s.node.storage.has_key(key)]
                assert holders, f"key {key!r} lost on decommission"

    def test_crashed_node_is_never_a_handoff_source(self):
        cluster = build_cluster(hint_replay_interval_ms=None)
        seed_converged(cluster, [f"k{i}" for i in range(8)])
        cluster.fail_node("n2")
        cluster.transport.trace_enabled = True
        cluster.join_node("n4")
        cluster.simulation.run_until_idle()
        handoffs = [m for m in cluster.transport.trace
                    if m.msg_type.value == "key_handoff"]
        assert handoffs, "live holders should still hand keys to the joiner"
        assert all(m.sender != "n2" for m in handoffs), \
            "a crashed node must never be the handoff source"
        # the joiner still got every key it now owns, from live holders
        for key in cluster.key_universe():
            if "n4" in cluster.placement.primary_replicas(key):
                assert cluster.servers["n4"].node.storage.has_key(key)

    def test_decommission_of_down_node_skips_handoff_and_purges_hints(self):
        cluster = build_cluster(hint_replay_interval_ms=40.0)
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.run(until=cluster.simulation.now + 10.0)
        cluster.fail_node("n3")
        client.get("k", lambda _r: client.put("k", "v2"))
        # the get and then the put each fail over off n3 (75 ms apiece)
        # before the put's coordinator holds a hint for it
        cluster.run(until=cluster.simulation.now + 200.0)
        assert sum(s.node.storage.pending_hints() for s in cluster.servers.values()) > 0
        handed_off = cluster.decommission_node("n3")
        assert handed_off == 0  # a crashed disk cannot push its keys
        # hints for the removed node are purged everywhere
        assert sum(s.node.storage.pending_hints() for s in cluster.servers.values()) == 0
        assert cluster.stat_totals()["pending_hints"] == 0

    def test_decommission_into_partition_refused(self):
        # Handing keys off into a partition would silently drop sole copies;
        # the graceful leave must refuse instead, leaving the ring intact.
        cluster = build_cluster(hint_replay_interval_ms=None)
        seed_converged(cluster, [f"k{i}" for i in range(6)])
        cluster.partitions.partition({"n1"}, {"n2", "n3"})
        with pytest.raises(Exception):
            cluster.decommission_node("n1")
        assert "n1" in cluster.servers
        assert "n1" in cluster.ring.nodes()
        assert cluster.membership.is_up("n1")
        cluster.partitions.heal()
        cluster.decommission_node("n1")      # now it succeeds
        assert "n1" not in cluster.servers

    def test_departed_node_stats_still_counted(self):
        cluster = build_cluster(hint_replay_interval_ms=None)
        seed_converged(cluster, ["a", "b", "c"])
        writes_before = cluster.stat_totals()["writes"]
        assert writes_before > 0
        victim = next(iter(sorted(cluster.servers)))
        victim_writes = cluster.servers[victim].node.stats["writes"]
        cluster.decommission_node(victim)
        cluster.simulation.run_until_idle()
        totals = cluster.stat_totals()
        assert totals["writes"] == writes_before
        if victim_writes:
            # the departed node's work survives in the totals
            live_writes = sum(s.node.stats["writes"] for s in cluster.servers.values())
            assert totals["writes"] == live_writes + victim_writes

    def test_cluster_still_serves_after_churn(self):
        cluster = build_cluster(hint_replay_interval_ms=None)
        seed_converged(cluster, ["a", "b"])
        cluster.join_node("n4")
        cluster.simulation.run_until_idle()
        cluster.decommission_node("n1")
        cluster.simulation.run_until_idle()
        outcome = {}
        client = cluster.client("reader")
        client.put("a", "after-churn", lambda r: outcome.setdefault("put", r))
        cluster.simulation.run_until_idle()
        client.get("a", lambda r: outcome.setdefault("get", r))
        cluster.drain()
        assert outcome["put"].coordinator in cluster.servers
        assert "after-churn" in map(str, outcome["get"].values)


class TestProtocolEnvContract:
    def test_every_server_is_a_server_host_on_its_cluster(self):
        """Both backends host their servers the same way, and the cluster
        itself is the machines' env."""
        import asyncio

        from repro.kvstore import AsyncioCluster, ServerHost

        cluster = build_cluster()
        for server in cluster.servers.values():
            assert type(server) is ServerHost
            assert server.protocol.env is cluster

        async def hosts():
            real = AsyncioCluster(DVVMechanism(), server_ids=("n1", "n2", "n3"),
                                  anti_entropy_interval_ms=None,
                                  hint_replay_interval_ms=None)
            async with real:
                return real, list(real.servers.values())

        real, servers = asyncio.run(hosts())
        assert len(servers) == 3
        for server in servers:
            assert type(server) is ServerHost
            assert server.protocol.env is real

    def test_env_queries_follow_liveness(self):
        cluster = build_cluster()
        assert cluster.can_reach("n1", "n2")
        assert cluster.is_registered("n1")
        cluster.fail_node("n1")
        assert not cluster.is_registered("n1")
        assert not cluster.can_reach("n2", "n1")

    def test_protocol_machines_read_only_core_attributes(self):
        """Every ``env.<name>`` the machines read resolves on a bare
        ``ClusterCore``, so every backend's env answers it."""
        import pathlib
        import re

        import repro.kvstore.protocol as protocol
        from repro.kvstore import ClusterCore

        core = ClusterCore(DVVMechanism())
        read = set()
        for path in pathlib.Path(protocol.__file__).parent.glob("*.py"):
            read.update(re.findall(r"\benv\.([A-Za-z_]\w*)", path.read_text()))
        assert read, "the scan found no env reads"
        assert not [name for name in read if not hasattr(core, name)], sorted(read)
