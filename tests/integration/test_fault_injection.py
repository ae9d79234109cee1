"""Integration: fault injection on the message-passing cluster.

The transport can drop, duplicate and delay messages; the store's handlers
must be idempotent and the causality mechanisms must not be confused by
re-delivered state.  These tests run workloads under deliberately hostile
transport settings and assert that (a) the cluster still converges and (b) the
causal outcomes are identical to a clean run of the same seed.

The second half targets the newer protocol paths: partitions healing in the
middle of a Merkle anti-entropy round, coordinators crashing while they hold
outstanding hints, and hint replay to a replica that rejoined with wiped
storage.
"""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.network import FixedLatency, UniformLatency
from repro.workloads import ClosedLoopConfig, run_closed_loop_workload


def run_workload(mechanism_name: str,
                 seed: int = 99,
                 loss: float = 0.0,
                 duplicates: float = 0.0,
                 latency=None):
    cluster = SimulatedCluster(
        create(mechanism_name),
        server_ids=("n1", "n2", "n3"),
        quorum=QuorumConfig(n=3, r=2, w=2),
        latency=latency or FixedLatency(0.5),
        loss_probability=loss,
        duplicate_probability=duplicates,
        anti_entropy_interval_ms=30.0,
        seed=seed,
    )
    config = ClosedLoopConfig(keys=("k1", "k2"), think_time_ms=4.0,
                              write_fraction=0.6, stop_at_ms=300.0)
    run_closed_loop_workload(cluster, client_count=4, config=config)
    return cluster


def final_values(cluster, key):
    reference = None
    for server in cluster.servers.values():
        values = sorted(map(repr, server.node.values_of(key)))
        if reference is None:
            reference = values
        else:
            assert values == reference, "replicas did not converge"
    return reference


class TestDuplicatedMessages:
    def test_duplicate_delivery_is_idempotent(self):
        noisy = run_workload("dvv", duplicates=0.3)
        assert noisy.transport.stats.duplicated > 0
        for key in ("k1", "k2"):
            # Replicas still converge and every request completed exactly once
            # (no request record is produced twice for the same msg_id).
            final_values(noisy, key)
        records = noisy.all_request_records()
        assert len(records) == len({(r.client_id, r.operation, r.started_at) for r in records})

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "client_vv"])
    def test_all_mechanisms_tolerate_duplicates(self, mechanism_name):
        cluster = run_workload(mechanism_name, duplicates=0.25)
        for key in ("k1", "k2"):
            final_values(cluster, key)  # asserts convergence internally


class TestLossyNetwork:
    def test_store_converges_despite_message_loss(self):
        cluster = run_workload("dvv", loss=0.08)
        assert cluster.transport.stats.dropped_loss > 0
        for key in ("k1", "k2"):
            final_values(cluster, key)

    def test_jittery_latency_does_not_change_convergence(self):
        cluster = run_workload("dvv", latency=UniformLatency(0.1, 3.0))
        for key in ("k1", "k2"):
            final_values(cluster, key)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        first = run_workload("dvv", seed=123)
        second = run_workload("dvv", seed=123)
        assert first.transport.stats.sent == second.transport.stats.sent
        for key in ("k1", "k2"):
            assert final_values(first, key) == final_values(second, key)
        first_latencies = [round(r.latency_ms, 9) for r in first.all_request_records()]
        second_latencies = [round(r.latency_ms, 9) for r in second.all_request_records()]
        assert first_latencies == second_latencies

    def test_different_seed_different_schedule(self):
        # A stochastic latency model makes the simulation seed observable.
        first = run_workload("dvv", seed=1, latency=UniformLatency(0.1, 2.0))
        second = run_workload("dvv", seed=2, latency=UniformLatency(0.1, 2.0))
        assert ([round(r.latency_ms, 6) for r in first.all_request_records()]
                != [round(r.latency_ms, 6) for r in second.all_request_records()])


def build_quiet_cluster(seed=7, **kwargs):
    """A cluster with no background daemons: faults are injected by hand."""
    kwargs.setdefault("server_ids", ("n1", "n2", "n3"))
    kwargs.setdefault("quorum", QuorumConfig(n=3, r=2, w=2))
    kwargs.setdefault("latency", FixedLatency(0.5))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("hint_replay_interval_ms", None)
    return SimulatedCluster(create("dvv"), seed=seed, **kwargs)


def seed_keys(cluster, keys, settle_ms=30.0):
    """Write one value per key and settle: with N=3/W=2 over three servers the
    put fan-out reaches every replica, so the cluster starts converged without
    needing an anti-entropy pass (which would stop the background daemons)."""
    client = cluster.client("seeder")
    for key in keys:
        client.put(key, f"{key}-v1")
    cluster.run(until=cluster.simulation.now + settle_ms)
    return client


class TestPartitionHealingMidAntiEntropy:
    def test_heal_mid_merkle_round_still_converges(self):
        cluster = build_quiet_cluster()
        client = seed_keys(cluster, [f"k{i}" for i in range(8)])

        # Diverge keys coordinated away from n3 while n3 is cut off (a GET
        # through a partitioned coordinator could not reach its R=2 quorum).
        divergers = [key for key in cluster.key_universe()
                     if cluster.placement.coordinator_for(key) != "n3"][:2]
        assert divergers
        cluster.partitions.partition({"n1", "n2"}, {"n3"})
        for key in divergers:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-late"))
        cluster.simulation.run_until_idle()

        # Start a Merkle round toward the partitioned node: the level-0
        # request is dropped at the sender, leaving a dangling session.
        cluster.start_exchange("n1", "n3")
        cluster.simulation.run_until_idle()
        assert cluster.transport.stats.dropped_partition > 0
        assert not cluster.is_converged()

        # Now start a round between the connected pair and heal the partition
        # mid-exchange: the first messages flow, the partition heals before
        # the next level, and later rounds finish the job without the stale
        # n1->n3 session corrupting anything.
        cluster.start_exchange("n1", "n2")
        cluster.run(until=cluster.simulation.now + 0.6)  # level-0 delivered
        cluster.partitions.heal()
        rounds = cluster.converge(max_rounds=20)
        assert cluster.is_converged()
        assert rounds >= 1
        merkle_transfers = sum(server.node.stats["merkle_syncs"]
                               for server in cluster.servers.values())
        assert merkle_transfers > 0

    def test_partition_cut_mid_round_then_heal(self):
        """A partition cutting an exchange after level 0 corrupts nothing."""
        cluster = build_quiet_cluster()
        client = seed_keys(cluster, [f"k{i}" for i in range(6)])
        # Diverge a key coordinated away from n3 while n3 is cut off.
        diverger = next(key for key in cluster.key_universe()
                        if cluster.placement.coordinator_for(key) != "n3")
        cluster.partitions.partition({"n1", "n2"}, {"n3"})
        client.get(diverger, lambda _r, k=diverger: client.put(k, f"{k}-late"))
        cluster.simulation.run_until_idle()
        cluster.partitions.heal()
        assert not cluster.is_converged()
        # Start an exchange toward n3 and cut the link again mid-round: the
        # level-0 request is delivered but the deeper levels are dropped.
        cluster.start_exchange("n1", "n3")
        cluster.run(until=cluster.simulation.now + 0.6)  # level-0 delivered
        cluster.partitions.partition({"n1", "n2"}, {"n3"})
        cluster.simulation.run_until_idle()              # rest of round dropped
        assert not cluster.is_converged()
        cluster.partitions.heal()
        cluster.converge(max_rounds=20)
        assert cluster.is_converged()


class TestCoordinatorCrashWithHints:
    def test_hints_survive_coordinator_restart_and_replay(self):
        """Hints are persisted in the storage layer: a coordinator crash no
        longer silently loses them — replay resumes after the restart."""
        cluster = build_quiet_cluster(hint_replay_interval_ms=30.0)
        keys = ["h1", "h2", "h3"]
        client = seed_keys(cluster, keys)

        cluster.fail_node("n3")
        for key in keys:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-while-down"))
        # A key whose first candidate coordinator is n3 waits out the
        # client's 75 ms failover deadline twice (the get, then the put),
        # and its new coordinator holds the hint once n3's replica deadline
        # fires, so the window covers both.
        cluster.run(until=cluster.simulation.now + 200.0)

        holders = [server_id for server_id, server in cluster.servers.items()
                   if server.node.storage.pending_hints() > 0]
        assert holders, "expected coordinators to hold hints for the down replica"
        total_hints = sum(server.node.stats["hints_stored"]
                          for server in cluster.servers.values())
        assert total_hints >= len(keys)

        # Crash every coordinator holding hints, then restart them: the
        # persisted hints are still there afterwards.
        for holder in holders:
            cluster.fail_node(holder)
        cluster.run(until=cluster.simulation.now + 10.0)
        for holder in holders:
            cluster.recover_node(holder)
            assert cluster.servers[holder].node.storage.pending_hints() > 0

        # The victim comes back; the restarted holders' hints replay to it.
        cluster.recover_node("n3")
        cluster.run(until=cluster.simulation.now + 90.0)
        assert cluster.servers["n3"].node.stats["hint_replays"] >= len(keys)
        assert sum(server.node.storage.pending_hints()
                   for server in cluster.servers.values()) == 0
        for key in keys:
            assert f"{key}-while-down" in map(str, cluster.servers["n3"].node.values_of(key))

        cluster.converge(max_rounds=20)
        assert cluster.is_converged()

    def test_wiped_holder_loses_hints_but_cluster_recovers(self):
        """A disk wipe on the holder loses the hints with the disk; the write
        still survives on the holder's peers and anti-entropy converges."""
        cluster = build_quiet_cluster(hint_replay_interval_ms=30.0)
        keys = ["h1", "h2"]
        client = seed_keys(cluster, keys)

        cluster.fail_node("n3")
        for key in keys:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-while-down"))
        cluster.run(until=cluster.simulation.now + 25.0)
        holders = [server_id for server_id, server in cluster.servers.items()
                   if server.node.storage.pending_hints() > 0]
        assert holders

        # Wipe one holder's disk: its hints go with it.  The write itself
        # survives on the other live replica (W=2 reached it), so healing
        # still converges everyone onto the while-down values.
        wiped = holders[0]
        cluster.fail_node(wiped)
        cluster.run(until=cluster.simulation.now + 10.0)
        cluster.recover_node(wiped, wipe=True)
        assert cluster.servers[wiped].node.storage.pending_hints() == 0

        cluster.recover_node("n3")
        cluster.converge(max_rounds=20)
        assert cluster.is_converged()
        for key in keys:
            values = {tuple(sorted(map(str, server.node.values_of(key))))
                      for server in cluster.servers.values()}
            assert len(values) == 1
            assert f"{key}-while-down" in values.pop()


def build_async_cluster(mechanism_name="dvv", sloppy=True, seed=7, **kwargs):
    """A five-server cluster with short coordination deadlines."""
    kwargs.setdefault("server_ids", ("n1", "n2", "n3", "n4", "n5"))
    kwargs.setdefault("latency", FixedLatency(0.5))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("hint_replay_interval_ms", 25.0)
    kwargs.setdefault("replica_timeout_ms", 6.0)
    kwargs.setdefault("request_timeout_ms", 30.0)
    return SimulatedCluster(
        create(mechanism_name),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=sloppy),
        seed=seed,
        **kwargs,
    )


class TestSloppyQuorumWrites:
    """Acceptance criterion: with a primary partitioned away, sloppy mode
    completes W=2 writes that strict mode fails, and after healing all
    replicas converge to the same sibling set."""

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset"])
    def test_sloppy_completes_what_strict_fails(self, mechanism_name):
        outcomes = {}
        for sloppy in (True, False):
            cluster = build_async_cluster(mechanism_name, sloppy=sloppy)
            key = "contested"
            client = cluster.client("writer")
            client.put(key, "base")
            cluster.run(until=cluster.simulation.now + 20.0)

            # Cut two of the key's three primaries off together; the
            # coordinator stays on the majority side with the client.
            primaries = cluster.placement.primary_replicas(key)
            minority = set(primaries[1:3])
            majority = {server for server in cluster.servers
                        if server not in minority}
            cluster.partitions.partition(minority, majority)

            client.get(key, lambda _r: client.put(key, "during-partition"))
            cluster.run(until=cluster.simulation.now + 300.0)
            put_records = [record for record in client.records
                           if record.operation == "put"][1:]
            assert put_records, "the partitioned write never finished"
            outcomes[sloppy] = (cluster, put_records[-1])

        sloppy_cluster, sloppy_record = outcomes[True]
        strict_cluster, strict_record = outcomes[False]
        assert sloppy_record.ok, "sloppy mode should complete the W=2 write"
        assert not strict_record.ok, "strict mode should fail the W=2 write"
        assert strict_record.error in ("quorum_unreachable", "request_timeout")

        # Sloppy mode parked the write on fallback nodes with hints naming
        # the unreachable primaries.
        fallback_hints = sum(server.node.storage.pending_hints()
                             for server in sloppy_cluster.servers.values())
        assert fallback_hints > 0

        # After healing, hint replay + anti-entropy converge every replica
        # onto an identical sibling set containing the partitioned write.
        for cluster, record in ((sloppy_cluster, sloppy_record),
                                (strict_cluster, strict_record)):
            cluster.partitions.heal()
            cluster.run(until=cluster.simulation.now + 100.0)
            cluster.converge(max_rounds=30)
            assert cluster.is_converged()
        reference = None
        for server_id, server in sorted(sloppy_cluster.servers.items()):
            values = sorted(map(str, server.node.values_of("contested")))
            assert "during-partition" in values
            if reference is None:
                reference = values
            else:
                assert values == reference, f"{server_id} diverged: {values}"
        assert sum(server.node.storage.pending_hints()
                   for server in sloppy_cluster.servers.values()) == 0

    def test_fallback_write_reaches_primary_via_hint_replay(self):
        """The Dynamo loop: fallback accepts with a hint, primary recovers,
        hint replay returns the data to the primary."""
        cluster = build_async_cluster("dvv")
        key = "handoff"
        client = cluster.client("writer")
        client.put(key, "base")
        cluster.run(until=cluster.simulation.now + 20.0)

        primaries = cluster.placement.primary_replicas(key)
        victim = primaries[1]
        cluster.fail_node(victim)
        client.get(key, lambda _r: client.put(key, "hinted"))
        cluster.run(until=cluster.simulation.now + 100.0)

        holders = {server_id: server.node.storage.hints_for(victim)
                   for server_id, server in cluster.servers.items()
                   if server.node.storage.hints_for(victim)}
        assert holders, "expected a fallback (or the coordinator) to hold a hint"
        assert all(hint.key == key for hints in holders.values() for hint in hints)
        assert victim not in holders

        cluster.recover_node(victim)
        cluster.run(until=cluster.simulation.now + 100.0)
        assert "hinted" in map(str, cluster.servers[victim].node.values_of(key))
        assert cluster.servers[victim].node.stats["hint_replays"] >= 1
        assert sum(server.node.storage.pending_hints()
                   for server in cluster.servers.values()) == 0


class TestHintReplayToWipedNode:
    def test_wiped_rejoin_is_repopulated_by_hint_replay(self):
        cluster = build_quiet_cluster(hint_replay_interval_ms=20.0)
        keys = ["w1", "w2"]
        client = seed_keys(cluster, keys)

        cluster.fail_node("n3")
        for key in keys:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-hinted"))
        # two client failovers off n3, then its replica deadline (as above)
        cluster.run(until=cluster.simulation.now + 200.0)
        pending_before = sum(server.node.storage.pending_hints()
                             for server in cluster.servers.values())
        assert pending_before >= len(keys)

        # The victim rejoins with wiped storage; hint replay (nudged by the
        # recovery itself and driven by the daemon) repopulates it.
        cluster.recover_node("n3", wipe=True)
        assert cluster.servers["n3"].node.storage.keys() == []
        cluster.run(until=cluster.simulation.now + 80.0)

        replays = cluster.servers["n3"].node.stats["hint_replays"]
        assert replays >= len(keys)
        for key in keys:
            assert f"{key}-hinted" in map(str, cluster.servers["n3"].node.values_of(key))
        # Acked hints are cleared, and replays were counted separately from
        # ordinary merges on the receiving node.
        assert sum(server.node.storage.pending_hints()
                   for server in cluster.servers.values()) == 0
        cluster.converge(max_rounds=20)
        assert cluster.is_converged()
