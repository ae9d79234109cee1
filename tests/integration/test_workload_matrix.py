"""Integration: identical synthetic workloads replayed under every mechanism,
checking both the correctness claims and the metadata-size claims end to end.

The paper's quantitative claims are pinned here as shape assertions: metadata
growth with the number of clients (E2), the damage done by pruning client
version vectors (E3), request latency and context bytes on the simulated
cluster (E4), and the WinFS-style VVE baseline's footprint (E6).  E5, the
concurrent-writers sibling sweep, lives with the scenarios in
``tests/workloads/test_generator_and_scenarios.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_requests,
    check_store,
    compare_reports,
    measure_simulated_cluster,
    measure_sync_store,
)
from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.network import FixedLatency, SizeDependentLatency
from repro.workloads import (
    ClosedLoopConfig,
    WorkloadConfig,
    generate_workload,
    interleaved_two_server_trace,
    replay_trace,
    run_closed_loop_workload,
)

WORKLOAD = WorkloadConfig(
    clients=24,
    servers=("A", "B", "C"),
    keys=3,
    operations=240,
    stale_read_probability=0.35,
    blind_write_probability=0.05,
    seed=2012,                      # the paper's year, for luck and determinism
)


@pytest.fixture(scope="module")
def trace():
    return generate_workload(WORKLOAD)


@pytest.fixture(scope="module")
def results(trace):
    names = ["dvv", "dvvset", "client_vv", "client_vv_pruned_5", "server_vv",
             "dotted_vve", "causal_history"]
    out = {}
    for name in names:
        replay = replay_trace(trace, create(name))
        replay.store.converge()
        out[name] = replay
    return out


class TestCorrectnessMatrix:
    @pytest.mark.parametrize("name", ["dvv", "dvvset", "client_vv", "dotted_vve",
                                      "causal_history"])
    def test_exact_mechanisms_are_flawless(self, results, name):
        report = check_store(results[name].store)
        assert report.total_lost_updates == 0
        assert report.total_false_concurrency == 0

    def test_server_vv_loses_updates(self, results):
        report = check_store(results["server_vv"].store)
        assert report.total_lost_updates > 0

    def test_pruned_client_vv_misbehaves(self, results):
        report = check_store(results["client_vv_pruned_5"].store)
        assert report.total_lost_updates + report.total_false_concurrency > 0

    def test_all_replicas_converge(self, results):
        for replay in results.values():
            assert replay.store.is_converged()


class TestMetadataMatrix:
    def test_dvv_metadata_much_smaller_than_client_vv(self, results):
        reports = {name: measure_sync_store(replay.store) for name, replay in results.items()}
        ratio = compare_reports(reports, baseline="client_vv", challenger="dvv")
        assert ratio["entries_ratio"] > 1.5
        assert ratio["bytes_ratio"] > 1.5

    def test_dvvset_is_the_most_compact_exact_mechanism(self, results):
        reports = {name: measure_sync_store(replay.store) for name, replay in results.items()}
        exact = ["dvv", "dvvset", "client_vv", "dotted_vve", "causal_history"]
        smallest = min(exact, key=lambda name: reports[name].total_bytes)
        assert smallest == "dvvset"

    def test_causal_history_is_the_largest(self, results):
        reports = {name: measure_sync_store(replay.store) for name, replay in results.items()}
        largest = max(reports, key=lambda name: reports[name].total_bytes)
        assert largest == "causal_history"

    def test_dvv_per_key_entries_bounded_by_replication_degree(self, results):
        store = results["dvv"].store
        servers = len(WORKLOAD.servers)
        for key in store.write_log.keys():
            replica = store.replicas_for(key)[0]
            siblings = len(store.siblings(key, replica))
            entries = store.node(replica).metadata_entries(key)
            assert entries <= siblings * (servers + 1)

    def test_client_vv_per_key_entries_track_number_of_writers(self, results):
        store = results["client_vv"].store
        # at least one key accumulated far more entries than the replica count
        assert store.max_metadata_entries_per_key() > len(WORKLOAD.servers) + 1


def replay_converged(trace, name: str):
    replay = replay_trace(trace, create(name))
    replay.store.converge()
    return replay.store


class TestMetadataGrowth:
    """E2: per-key metadata as the number of writing clients grows 2 -> 32."""

    @pytest.fixture(scope="class")
    def growth(self):
        def max_entries(name, clients):
            trace = generate_workload(WorkloadConfig(
                clients=clients, servers=("A", "B", "C"), keys=1,
                operations=max(40, clients * 4), read_probability=0.4,
                stale_read_probability=0.3, seed=2012 + clients))
            return measure_sync_store(
                replay_converged(trace, name)).max_entries_per_key

        return {name: max_entries(name, 32) / max(max_entries(name, 2), 1)
                for name in ("client_vv", "dvv", "dvvset")}

    def test_client_vv_grows_more_than_twofold(self, growth):
        assert growth["client_vv"] > 2.0

    @pytest.mark.parametrize("name", ["dvv", "dvvset"])
    def test_dotted_mechanisms_grow_more_slowly(self, growth, name):
        assert growth[name] < growth["client_vv"]


PRUNING_POLICIES = ["client_vv", "client_vv_pruned_20", "client_vv_pruned_10",
                    "client_vv_pruned_5", "dvv", "dvvset"]


class TestPruningDamage:
    """E3: optimistic pruning bounds client VVs at the cost of causal damage;
    DVVs get a tighter bound with none."""

    @pytest.fixture(scope="class")
    def pruning(self):
        trace = generate_workload(WorkloadConfig(
            clients=48, servers=("A", "B", "C"), keys=2, operations=400,
            read_probability=0.4, stale_read_probability=0.35,
            blind_write_probability=0.05, seed=31))
        stores = {name: replay_converged(trace, name) for name in PRUNING_POLICIES}
        return {name: (check_store(store), measure_sync_store(store))
                for name, store in stores.items()}

    @pytest.mark.parametrize("name", ["client_vv", "dvv", "dvvset"])
    def test_exact_policies_do_no_damage(self, pruning, name):
        report, _ = pruning[name]
        assert report.is_correct
        assert report.total_lost_updates + report.total_false_concurrency == 0

    # Which of lost updates / false concurrency appears depends on the
    # interleaving, so only the sum is asserted.
    @pytest.mark.parametrize("name", ["client_vv_pruned_20", "client_vv_pruned_10",
                                      "client_vv_pruned_5"])
    def test_pruned_policies_do_damage(self, pruning, name):
        report, _ = pruning[name]
        assert not report.is_correct
        assert report.total_lost_updates + report.total_false_concurrency > 0

    def test_dvv_bound_is_tighter_than_aggressive_pruning(self, pruning):
        assert (pruning["dvv"][1].max_entries_per_key
                <= pruning["client_vv_pruned_5"][1].max_entries_per_key)


class TestSimulatedLatency:
    """E4: the same closed-loop workload on the simulated cluster, which
    charges transmission time per byte, at 16 clients on one hot key."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for name in ("dvv", "dvvset", "client_vv", "causal_history"):
            cluster = SimulatedCluster(
                create(name), server_ids=("n1", "n2", "n3"),
                quorum=QuorumConfig(n=3, r=2, w=2),
                latency=SizeDependentLatency(base=FixedLatency(0.25),
                                             bytes_per_ms=600.0),
                anti_entropy_interval_ms=50.0, seed=1016)
            run_closed_loop_workload(cluster, client_count=16, config=ClosedLoopConfig(
                keys=("hot-key",), think_time_ms=4.0, write_fraction=0.6,
                stop_at_ms=600.0))
            report = analyze_requests(name, cluster.all_request_records(),
                                      duration_ms=600.0)
            out[name] = {
                "mean_latency_ms": report.overall.mean,
                "context_bytes": report.mean_context_bytes,
                "stored_bytes": measure_simulated_cluster(cluster).total_bytes,
            }
        return out

    @pytest.mark.parametrize("metric", ["mean_latency_ms", "context_bytes",
                                        "stored_bytes"])
    def test_dvv_below_client_vv_below_causal_history(self, runs, metric):
        assert (runs["dvv"][metric] < runs["client_vv"][metric]
                < runs["causal_history"][metric])

    def test_dvvset_no_slower_than_client_vv(self, runs):
        assert runs["dvvset"]["mean_latency_ms"] <= runs["client_vv"]["mean_latency_ms"]


def test_vve_costs_at_least_dvv_bytes_on_interleaved_writes():
    """E6: both are exact, but VVE pasts accumulate exceptions when two
    servers interleave writes, so they never undercut DVVs."""
    trace = interleaved_two_server_trace(pairs=12)
    dvv = replay_converged(trace, "dvv")
    vve = replay_converged(trace, "dotted_vve")
    assert check_store(dvv).is_correct and check_store(vve).is_correct
    assert measure_sync_store(vve).total_bytes >= measure_sync_store(dvv).total_bytes
