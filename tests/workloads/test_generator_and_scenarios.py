"""Unit tests for the synthetic workload generator and the named scenarios."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import check_store
from repro.clocks import DVVMechanism, ServerVVMechanism, create
from repro.core import ConfigurationError
from repro.workloads import (
    CHURN_SCENARIOS,
    OpType,
    ScenarioSpec,
    WorkloadConfig,
    WorkloadGenerator,
    concurrent_writers_trace,
    figure1_trace,
    generate_workload,
    interleaved_two_server_trace,
    named_scenarios,
    read_modify_write_chain_trace,
    replay_scenario,
    replay_trace,
    run_churn_scenario,
    run_figure1,
    run_figure1_by_name,
    session_reset_trace,
)


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(clients=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(keys=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(operations=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(read_probability=1.5)

    def test_names(self):
        config = WorkloadConfig(clients=2, keys=3)
        assert config.client_ids() == ["client-0", "client-1"]
        assert config.key_names() == ["key-0", "key-1", "key-2"]


class TestGenerator:
    def test_same_seed_same_trace(self):
        config = WorkloadConfig(clients=4, operations=50, seed=5)
        first = WorkloadGenerator(config).generate()
        second = WorkloadGenerator(config).generate()
        assert [op for op in first] == [op for op in second]

    def test_different_seed_different_trace(self):
        base = WorkloadConfig(clients=4, operations=50, seed=5)
        other = WorkloadConfig(clients=4, operations=50, seed=6)
        assert [op for op in WorkloadGenerator(base).generate()] != \
            [op for op in WorkloadGenerator(other).generate()]

    def test_final_sync_present(self):
        trace = generate_workload(WorkloadConfig(operations=20, final_sync=True))
        assert trace.operations[-1].op is OpType.SYNC_ALL

    def test_blind_writes_generated_when_requested(self):
        trace = generate_workload(WorkloadConfig(operations=200, blind_write_probability=0.5,
                                                 read_probability=0.0, seed=3))
        assert any(op.op is OpType.BLIND_PUT for op in trace)

    def test_zipf_concentrates_traffic(self):
        skewed = generate_workload(WorkloadConfig(operations=300, keys=8, zipf_s=2.0, seed=1))
        uniform = generate_workload(WorkloadConfig(operations=300, keys=8, zipf_s=0.0, seed=1))

        def top_key_share(trace):
            counts = {}
            for op in trace:
                if op.key:
                    counts[op.key] = counts.get(op.key, 0) + 1
            return max(counts.values()) / sum(counts.values())

        assert top_key_share(skewed) > top_key_share(uniform)

    def test_generate_workload_helper_rejects_mixed_args(self):
        with pytest.raises(ConfigurationError):
            generate_workload(WorkloadConfig(), operations=10)

    def test_generated_trace_replays_under_every_mechanism(self):
        trace = generate_workload(WorkloadConfig(clients=6, operations=60, seed=11))
        for name in ("dvv", "dvvset", "client_vv", "server_vv"):
            result = replay_trace(trace, create(name))
            assert len(result.store.write_log) > 0


class TestFigure1:
    def test_trace_shape(self):
        trace = figure1_trace()
        assert trace.server_ids == ("A", "B")
        assert trace.clients() == ["c1", "c2", "c3"]
        assert len(trace) == 10

    def test_dvv_preserves_concurrency(self):
        result = run_figure1(DVVMechanism())
        assert result.concurrency_preserved
        assert not result.lost_update
        assert result.values_after_concurrent_writes == ["v2", "v3"]
        assert result.values_at_b_after_sync == ["v2", "v3"]
        assert result.final_values == ["v4"]
        assert result.converged_to_single_value

    def test_server_vv_loses_an_update(self):
        result = run_figure1(ServerVVMechanism())
        assert not result.concurrency_preserved
        assert result.lost_update
        assert result.values_at_b_after_sync == ["v3"]

    def test_causal_history_matches_figure_1a(self):
        result = run_figure1_by_name("causal_history")
        assert result.concurrency_preserved
        assert result.final_values == ["v4"]

    def test_step_snapshots_are_recorded(self):
        result = run_figure1(DVVMechanism())
        assert len(result.steps) == 7
        assert result.steps[0].values_at_a == ["v1"]
        assert result.steps[0].values_at_b == []


class TestNamedScenarios:
    def test_all_scenarios_replay(self):
        for name in named_scenarios():
            result = replay_scenario(name, DVVMechanism())
            assert len(result.store.write_log) > 0

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            replay_scenario("nope", DVVMechanism())

    def test_concurrent_writers_scenario_keeps_all_siblings_under_dvv(self):
        writers = 5
        result = replay_trace(concurrent_writers_trace(writers=writers), DVVMechanism())
        result.store.converge()
        values = result.store.values("contested", "A")
        assert len(values) == writers

    def test_rmw_chain_has_single_survivor_under_every_mechanism(self):
        trace = read_modify_write_chain_trace(clients=2, length=3)
        for name in ("dvv", "server_vv", "client_vv"):
            result = replay_trace(trace, create(name))
            result.store.converge()
            assert len(result.store.values("chain", "A")) == 1

    def test_session_reset_scenario_resolves(self):
        result = replay_trace(session_reset_trace(clients=3, resets=2), DVVMechanism())
        result.store.converge()
        assert result.store.values("careless", "A") == ["resolved"]
        report = check_store(result.store)
        assert report.total_lost_updates == 0

    def test_interleaved_scenario_is_exact_under_dvv(self):
        result = replay_trace(interleaved_two_server_trace(pairs=3), DVVMechanism())
        report = check_store(result.store)
        assert report.total_lost_updates == 0
        assert report.total_false_concurrency == 0

    def test_figure1_scenario_via_replay(self):
        result = replay_scenario("figure1", DVVMechanism())
        result.store.converge()
        assert result.store.values("obj", "A") == ["v4"]


def race_on_one_key(mechanism_name: str, writers: int):
    """Replay ``writers`` concurrent blind-context writes to one key, converge,
    and return (surviving siblings, ground-truth siblings, oracle report)."""
    result = replay_trace(concurrent_writers_trace(writers=writers),
                          create(mechanism_name))
    result.store.converge()
    store = result.store
    replica = store.replicas_for("contested")[0]
    return (len(store.siblings("contested", replica)),
            len(store.write_log.latest_frontier("contested")),
            check_store(store))


class TestConcurrentWritersSweep:
    """E5: N clients race on one key through three servers.  Exact mechanisms
    keep all N versions; per-server VVs collapse the writes that share a
    coordinator, so they lose updates once N exceeds the server count."""

    @pytest.mark.parametrize("writers", [2, 4, 8, 16])
    @pytest.mark.parametrize("name", ["dvv", "dvvset", "client_vv", "causal_history"])
    def test_exact_mechanisms_keep_every_concurrent_write(self, name, writers):
        siblings, expected, report = race_on_one_key(name, writers)
        assert expected == writers
        assert siblings == writers
        assert report.total_lost_updates == 0

    @pytest.mark.parametrize("writers", [4, 8, 16])
    def test_server_vv_drops_writes_through_a_shared_coordinator(self, writers):
        siblings, expected, report = race_on_one_key("server_vv", writers)
        assert siblings < expected == writers
        assert report.total_lost_updates > 0


class TestChurnScenarios:
    def test_elasticity_scenario_converges_and_rebalances(self):
        report = run_churn_scenario("elasticity", create("dvv"), seed=21)
        assert report.converged
        assert report.joined == ["n4", "n5"]
        assert report.departed == ["n1"]
        assert sorted(report.final_servers) == ["n2", "n3", "n4", "n5"]
        assert report.handoff_keys > 0
        assert report.stats["handoffs"] > 0
        assert report.requests_completed > 0

    def test_flappy_scenario_stores_and_replays_hints(self):
        report = run_churn_scenario("flappy_replica", create("dvvset"), seed=31)
        assert report.converged
        assert report.stats["hints_stored"] > 0
        assert report.stats["hint_replays"] > 0
        assert report.stats["pending_hints"] == 0

    def test_flappy_with_wiped_recovery(self):
        report = run_churn_scenario("flappy_replica", create("dvv"), seed=41,
                                    wipe_on_recover=True)
        assert report.converged

    # The id prefix keeps "soak" from being a bare keyword: that marks a test soak.
    @pytest.mark.parametrize("name", sorted(CHURN_SCENARIOS),
                             ids=lambda name: f"scenario-{name}")
    def test_the_seed_drives_the_traffic(self, name):
        def records(seed):
            report = run_churn_scenario(name, create("dvv"), seed=seed)
            return report.cluster.all_request_records()

        assert records(5) != records(6)

    def test_churn_scenario_runs_by_name(self):
        report = run_churn_scenario("elasticity", create("dvv"), seed=5)
        assert report.converged

    def test_unknown_churn_scenario(self):
        with pytest.raises(KeyError):
            run_churn_scenario("nope", DVVMechanism())

    def test_unknown_fault_action_is_rejected_before_the_run(self):
        with pytest.raises(ValueError, match="explode"):
            run_churn_scenario("elasticity", DVVMechanism(),
                               faults=((0.5, "explode", "n1"),))

    def test_every_spec_field_is_one_the_scenarios_differ_on(self):
        """A field all six entries agree on must be one a caller changes:
        the CLI and the availability bench set ``quorum_mode``, the flappy
        tests ``wipe_on_recover``."""
        uniform = {spec_field.name for spec_field in dataclasses.fields(ScenarioSpec)
                   if len({repr(getattr(spec, spec_field.name))
                           for spec in CHURN_SCENARIOS.values()}) < 2}
        assert uniform == {"quorum_mode", "wipe_on_recover"}
