"""Tests for version-vector pruning policies and the pruned client-VV mechanism."""

from __future__ import annotations

import pytest

from repro.clocks import (
    ClientVVMechanism,
    DropOldestWriters,
    GoldingSafePruning,
    NoPruning,
    PrunedClientVVMechanism,
    Sibling,
    SizeBoundedPruning,
)
from repro.core import Dot, Ordering, VersionVector


def sibling(value, writer, seq):
    dot = Dot(writer, seq)
    return Sibling(value=value, origin_dot=dot)


class TestPolicies:
    def test_no_pruning_is_identity(self):
        vv = VersionVector({"A": 1, "B": 2})
        assert NoPruning().prune(vv) == vv

    def test_size_bounded_keeps_largest_counters(self):
        policy = SizeBoundedPruning(2)
        vv = VersionVector({"old": 1, "mid": 5, "new": 9})
        pruned = policy.prune(vv)
        assert pruned.actors() == {"mid", "new"}
        assert policy.pruned_entries == 1

    def test_size_bounded_no_op_under_threshold(self):
        policy = SizeBoundedPruning(5)
        vv = VersionVector({"A": 1})
        assert policy.prune(vv) == vv

    def test_size_bounded_validation(self):
        with pytest.raises(ValueError):
            SizeBoundedPruning(0)

    def test_drop_oldest(self):
        policy = DropOldestWriters(2)
        vv = VersionVector({"a": 1, "b": 2, "c": 3, "d": 4})
        assert policy.prune(vv).actors() == {"c", "d"}
        # too few entries: nothing dropped
        assert policy.prune(VersionVector({"a": 1})).actors() == {"a"}

    def test_golding_safe_pruning_only_drops_globally_known_entries(self):
        policy = GoldingSafePruning()
        policy.observe_replica_knowledge([
            VersionVector({"A": 3, "B": 1}),
            VersionVector({"A": 2, "B": 4}),
        ])
        # floor is {A:2, B:1}
        vv = VersionVector({"A": 2, "B": 3, "C": 1})
        pruned = policy.prune(vv)
        assert pruned.entries() == {"B": 3, "C": 1}

    def test_golding_safety_property(self):
        """Safe pruning never changes the relative order of vectors that are
        both above the global floor."""
        policy = GoldingSafePruning()
        policy.observe_replica_knowledge([VersionVector({"A": 2}), VersionVector({"A": 2})])
        older = VersionVector({"A": 3})
        newer = VersionVector({"A": 4})
        assert policy.prune(older).compare(policy.prune(newer)) is older.compare(newer)


class TestPrunedMechanism:
    def _concurrent_writer_state(self, mechanism, writers):
        state = mechanism.empty_state()
        for index in range(writers):
            context = mechanism.read(state).context
            state = mechanism.write(state, context, sibling(f"v{index}", f"client-{index}", 1),
                                    "A")
        return state

    def test_pruning_caps_metadata(self):
        exact = ClientVVMechanism()
        pruned = PrunedClientVVMechanism(SizeBoundedPruning(5))
        exact_state = self._concurrent_writer_state(exact, 20)
        pruned_state = self._concurrent_writer_state(pruned, 20)
        assert pruned.metadata_entries(pruned_state) <= 5 * max(1, len(pruned.siblings(pruned_state)))
        assert pruned.metadata_entries(pruned_state) < exact.metadata_entries(exact_state)

    def test_pruning_discards_causal_information(self):
        """A pruned vector no longer descends vectors it used to descend —
        the information loss behind the paper's 'unsafe' warning.  (The
        workload-level damage — lost updates and false concurrency — is
        asserted on a fixed seed in the integration tests and measured by
        benchmark E3.)"""
        chain = VersionVector.empty()
        for index in range(12):
            chain = chain.increment(f"client-{index}")
        policy = SizeBoundedPruning(3)
        pruned_chain = policy.prune(chain)
        # The unpruned vector descends every earlier prefix; the pruned one
        # no longer does, so a later version can appear concurrent with (or
        # even dominated by) an older one at another replica.
        earlier = VersionVector({f"client-{i}": 1 for i in range(6)})
        assert chain.descends(earlier)
        assert not pruned_chain.descends(earlier)
        assert pruned_chain.compare(earlier) is Ordering.CONCURRENT

    def test_pruned_mechanism_damages_multi_replica_workloads(self):
        """Replaying a concurrency-heavy workload under aggressive pruning
        produces at least one lost update or false-concurrency pair."""
        from repro.analysis import check_store
        from repro.workloads import WorkloadConfig, generate_workload, replay_trace

        trace = generate_workload(WorkloadConfig(
            clients=16, keys=2, operations=150, stale_read_probability=0.3, seed=7))
        pruned_report = check_store(
            replay_trace(trace, PrunedClientVVMechanism(SizeBoundedPruning(5))).store)
        exact_report = check_store(replay_trace(trace, ClientVVMechanism()).store)
        assert exact_report.total_lost_updates == 0
        assert exact_report.total_false_concurrency == 0
        assert (pruned_report.total_lost_updates + pruned_report.total_false_concurrency) > 0

    def test_name_includes_policy(self):
        mechanism = PrunedClientVVMechanism(SizeBoundedPruning(7))
        assert "7" in mechanism.name
        assert mechanism.exact is False
