"""Property-style randomized churn tests for the simulated cluster.

Two generalized properties, checked over random interleavings of client
writes, partitions, node crash/recover (optionally with wiped storage) and
anti-entropy rounds:

* **Convergence** — once partitions heal, crashed nodes recover and enough
  anti-entropy rounds run, every replica must store the identical sibling set
  for every key, under *every* registered causality mechanism (even the
  inexact ones: they may lose or over-report concurrency, but replicas must
  still agree with each other).
* **No lost concurrent updates** — the paper's Figure 1 criterion,
  generalized: when several clients read the same state and write
  concurrently, DVV and DVVSet must preserve every one of those writes as a
  sibling until a later read-modify-write resolves them, no matter what
  churn (replica crash, wiped recovery, partitions) happens in between.
"""

from __future__ import annotations

import random

import pytest

from repro.clocks import available, create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.network import FixedLatency

KEYS = ("alpha", "beta")
SERVERS = ("n1", "n2", "n3")


def build_cluster(mechanism_name: str, seed: int) -> SimulatedCluster:
    return SimulatedCluster(
        create(mechanism_name),
        server_ids=SERVERS,
        quorum=QuorumConfig(n=3, r=2, w=2),
        latency=FixedLatency(0.5),
        anti_entropy_interval_ms=None,   # sync happens only when the schedule says so
        hint_replay_interval_ms=20.0,
        seed=seed,
    )


def settle(cluster: SimulatedCluster, ms: float = 25.0) -> None:
    """Advance bounded virtual time (the hint daemon never lets the queue idle)."""
    cluster.run(until=cluster.simulation.now + ms)


def assert_identical_sibling_sets(cluster: SimulatedCluster) -> None:
    for key in cluster.key_universe():
        reference = None
        for server_id, server in sorted(cluster.servers.items()):
            values = sorted(map(repr, server.node.values_of(key)))
            if reference is None:
                reference = values
            else:
                assert values == reference, (
                    f"replica {server_id} disagrees on {key!r}: {values} != {reference}"
                )


def random_churn_run(cluster: SimulatedCluster, rng: random.Random, steps: int = 35) -> None:
    """Drive a random interleaving of puts, partitions, crashes and syncs."""
    clients = [cluster.client(f"c{index}") for index in range(3)]
    crashed = None
    counter = 0

    for _ in range(steps):
        action = rng.choice(
            ["put", "put", "put", "put", "get", "partition", "heal",
             "crash", "recover", "sync"]
        )
        if action == "put":
            client = rng.choice(clients)
            key = rng.choice(KEYS)
            counter += 1
            value = f"{client.client_id}-v{counter}"
            # Read-modify-write so causal chains build up; the put fires from
            # the read callback, preserving the session context.
            client.get(key, lambda _r, c=client, k=key, v=value: c.put(k, v))
        elif action == "get":
            rng.choice(clients).get(rng.choice(KEYS))
        elif action == "partition":
            loner = rng.choice(SERVERS)
            cluster.partitions.partition(
                {loner}, {node for node in SERVERS if node != loner}
            )
        elif action == "heal":
            cluster.partitions.heal()
        elif action == "crash" and crashed is None:
            crashed = rng.choice(SERVERS)
            cluster.fail_node(crashed)
        elif action == "recover" and crashed is not None:
            cluster.recover_node(crashed, wipe=rng.random() < 0.3)
            crashed = None
        elif action == "sync":
            cluster.run_anti_entropy_round(settle=False)
        cluster.run(until=cluster.simulation.now + rng.uniform(2.0, 10.0))

    # Quiesce: heal everything, bring everyone back, settle, converge.
    cluster.partitions.heal()
    if crashed is not None:
        cluster.recover_node(crashed)
    cluster.drain()
    cluster.converge(max_rounds=40)


class TestConvergenceUnderChurn:
    @pytest.mark.parametrize("mechanism_name", available())
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replicas_converge_after_random_churn(self, mechanism_name, seed):
        cluster = build_cluster(mechanism_name, seed)
        # Stable per-mechanism seed (hash() is randomized across processes).
        rng = random.Random(seed * 7919 + sum(map(ord, mechanism_name)))
        random_churn_run(cluster, rng)
        assert cluster.is_converged()
        assert_identical_sibling_sets(cluster)

    def test_wiped_recovery_converges(self):
        """A node that loses its disk mid-run must still end up identical."""
        cluster = build_cluster("dvv", seed=9)
        client = cluster.client("writer")
        for key in KEYS:
            client.put(key, f"{key}-v1")
        settle(cluster)
        cluster.converge()
        cluster.fail_node("n2")
        for key in KEYS:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-v2"))
        settle(cluster)
        cluster.recover_node("n2", wipe=True)
        cluster.drain()
        cluster.converge(max_rounds=40)
        assert_identical_sibling_sets(cluster)
        for key in KEYS:
            assert [f"{key}-v2"] == sorted(map(str, cluster.servers["n2"].node.values_of(key)))


class TestSloppyQuorumConvergence:
    """Fault injection for sloppy quorums: a write that lands *only*
    on sloppy-quorum fallback nodes must reach the primaries through hint
    replay once they recover, and every mechanism must converge with no lost
    update."""

    SERVERS5 = ("n1", "n2", "n3", "n4", "n5")

    def build_async(self, mechanism_name: str, seed: int = 11) -> SimulatedCluster:
        return SimulatedCluster(
            create(mechanism_name),
            server_ids=self.SERVERS5,
            quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
            latency=FixedLatency(0.5),
            anti_entropy_interval_ms=None,
            hint_replay_interval_ms=20.0,
            replica_timeout_ms=6.0,
            request_timeout_ms=30.0,
            seed=seed,
        )

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "causal_history"])
    def test_write_landing_only_on_fallbacks_survives(self, mechanism_name):
        cluster = self.build_async(mechanism_name)
        key = "orphaned"
        client = cluster.client("writer")
        client.put(key, "base")
        settle(cluster)
        cluster.converge()

        # Crash every primary: the client fails over through the dead
        # candidates until a fallback coordinates, and the write can only
        # land on fallback nodes (each holding a hint for a primary).
        primaries = cluster.placement.primary_replicas(key)
        for primary in primaries:
            cluster.fail_node(primary)
        results = []
        client.get(key, lambda _r: client.put(key, "fallback-only",
                                              callback=results.append))
        cluster.run(until=cluster.simulation.now + 800.0)
        assert results and results[-1] is not None, "the fallback write failed"

        fallbacks = [server_id for server_id in cluster.servers
                     if server_id not in primaries]
        assert any("fallback-only" in map(str, cluster.servers[s].node.values_of(key))
                   for s in fallbacks)
        for primary in primaries:
            assert "fallback-only" not in map(str, cluster.servers[primary].node.values_of(key))
        # Every crashed primary is covered by a hint somewhere.
        hinted_targets = set()
        for server in cluster.servers.values():
            hinted_targets.update(server.node.storage.hint_targets())
        assert hinted_targets == set(primaries)

        # Primaries recover; hint replay + anti-entropy must converge all
        # five replicas with the fallback write intact (no lost update).
        for primary in primaries:
            cluster.recover_node(primary)
        cluster.run(until=cluster.simulation.now + 150.0)
        cluster.drain()
        cluster.converge(max_rounds=40)
        assert_identical_sibling_sets(cluster)
        for server_id, server in cluster.servers.items():
            assert "fallback-only" in map(str, server.node.values_of(key)), (
                f"{mechanism_name}: {server_id} lost the fallback-only write"
            )
        assert sum(server.node.storage.pending_hints()
                   for server in cluster.servers.values()) == 0

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_concurrent_writes_during_partition_all_survive(self, mechanism_name, seed):
        """Two clients race on the same key from opposite sides of a
        partition in async mode; DVV/DVVSet must keep both writes."""
        cluster = self.build_async(mechanism_name, seed=seed)
        key = "raced"
        seeder = cluster.client("seeder")
        seeder.put(key, "base")
        settle(cluster)
        cluster.converge()

        alice, bob = cluster.client("alice"), cluster.client("bob")
        alice.get(key)
        bob.get(key)
        settle(cluster)

        primaries = cluster.placement.primary_replicas(key)
        minority = set(primaries[1:3])
        majority = {server for server in cluster.servers if server not in minority}
        cluster.partitions.partition(minority, majority)

        alice.put(key, "alice-sloppy")
        bob.put(key, "bob-sloppy")
        cluster.run(until=cluster.simulation.now + 400.0)

        cluster.partitions.heal()
        cluster.drain()
        cluster.converge(max_rounds=40)
        assert_identical_sibling_sets(cluster)
        for server in cluster.servers.values():
            survivors = set(map(str, server.node.values_of(key)))
            assert {"alice-sloppy", "bob-sloppy"} <= survivors


class TestNoLostConcurrentUpdates:
    """The Figure 1 lost-update check, generalized to random churn."""

    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_concurrent_writes_all_survive(self, mechanism_name, seed):
        rng = random.Random(seed * 104729 + 17)
        cluster = build_cluster(mechanism_name, seed)
        key = "contested"

        # Seed the key and fully converge so every writer reads one state.
        seeder = cluster.client("seeder")
        seeder.put(key, "base")
        settle(cluster)
        cluster.converge()

        writers = [cluster.client(f"w{index}") for index in range(rng.randint(2, 4))]
        for writer in writers:
            writer.get(key)
        settle(cluster)

        # Inject churn between the reads and the concurrent writes.  The
        # crashed node is never the key's coordinator, so every write still
        # lands somewhere.
        churn = rng.choice(["crash", "crash_wipe", "partition", "none"])
        victim = None
        if churn in ("crash", "crash_wipe"):
            coordinator = cluster.placement.coordinator_for(key)
            victim = rng.choice([node for node in SERVERS if node != coordinator])
            cluster.fail_node(victim)
        elif churn == "partition":
            loner = rng.choice(SERVERS)
            cluster.partitions.partition(
                {loner}, {node for node in SERVERS if node != loner}
            )

        expected = set()
        for writer in writers:
            value = f"{writer.client_id}-concurrent"
            expected.add(value)
            writer.put(key, value)
        settle(cluster)

        # Quiesce and converge.
        cluster.partitions.heal()
        if victim is not None:
            cluster.recover_node(victim, wipe=(churn == "crash_wipe"))
        cluster.drain()
        cluster.converge(max_rounds=40)

        assert_identical_sibling_sets(cluster)
        for server_id, server in cluster.servers.items():
            survivors = set(map(str, server.node.values_of(key)))
            assert expected <= survivors, (
                f"{mechanism_name} dropped concurrent writes on {server_id}: "
                f"wrote {sorted(expected)}, kept {sorted(survivors)}"
            )

class TestHotKeyLostUpdates:
    """The lost-update invariant under Zipfian hot-key traffic.

    The ``hot_key`` churn scenario drives a skewed closed-loop workload (most
    traffic on one hot key, a fraction of writes deliberately stale) through
    a replica crash/recover window.  Every *exact* mechanism must come out
    of it with zero lost updates and zero false concurrency according to the
    write-log oracle — while actually having been under sibling pressure
    (the hot key accumulated concurrent versions at some point, so the
    invariant is not vacuously true).
    """

    EXACT = ["dvv", "dvvset", "causal_history", "dotted_vve"]

    @pytest.mark.parametrize("mechanism_name", EXACT)
    @pytest.mark.parametrize("seed", [17, 18])
    def test_exact_mechanisms_never_lose_updates_under_skew(
            self, mechanism_name, seed):
        from repro.workloads import run_churn_scenario
        report = run_churn_scenario("hot_key", create(mechanism_name), seed=seed)
        assert report.converged, f"{mechanism_name} failed to converge"
        assert report.lost_updates == 0, (
            f"{mechanism_name} lost {report.lost_updates} frontier writes "
            f"under hot-key skew (seed={seed})"
        )
        assert report.false_concurrency == 0, (
            f"{mechanism_name} reported {report.false_concurrency} falsely "
            f"concurrent sibling pairs (seed={seed})"
        )
        # Non-vacuity: the skewed workload really did force concurrency.
        assert report.max_sibling_count >= 2, (
            "hot-key workload produced no sibling pressure — the invariant "
            "was checked against a trivially serial history"
        )

    def test_server_vv_loses_updates_under_skew(self):
        """The control: per-server VVs collapse concurrent writes to the
        same coordinator (Figure 1b), so skewed traffic *must* lose
        frontier writes — proving the oracle can detect losses."""
        from repro.workloads import run_churn_scenario
        report = run_churn_scenario("hot_key", create("server_vv"), seed=17)
        assert report.converged
        assert report.lost_updates > 0

    def test_pruned_client_vv_shows_false_concurrency(self):
        """Aggressive pruning forgets causality, so ordered writes survive
        as bogus siblings — the other failure mode the oracle tracks."""
        from repro.workloads import run_churn_scenario
        report = run_churn_scenario("hot_key", create("client_vv_pruned_5"), seed=17)
        assert report.converged
        assert report.false_concurrency > 0


class TestNoLostConcurrentUpdatesResolution:
    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset"])
    def test_resolving_write_collapses_siblings(self, mechanism_name):
        """After the race, a read-modify-write resolves to one value everywhere."""
        cluster = build_cluster(mechanism_name, seed=5)
        key = "contested"
        alice, bob = cluster.client("alice"), cluster.client("bob")
        alice.get(key)
        bob.get(key)
        settle(cluster)
        alice.put(key, "alice-v")
        bob.put(key, "bob-v")
        settle(cluster)
        cluster.converge()

        resolver = cluster.client("resolver")
        resolver.get(key, lambda _r: resolver.put(key, "resolved"))
        cluster.drain()
        cluster.converge()
        for server in cluster.servers.values():
            assert list(map(str, server.node.values_of(key))) == ["resolved"]
