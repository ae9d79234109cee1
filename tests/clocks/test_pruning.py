"""Tests for the size-bounded pruned client-VV mechanism."""

from __future__ import annotations

import pytest

from repro.clocks import ClientVVMechanism, PrunedClientVVMechanism, Sibling
from repro.core import Dot, Ordering, VersionVector


def sibling(value, writer, seq):
    dot = Dot(writer, seq)
    return Sibling(value=value, origin_dot=dot)


class TestPolicies:
    def test_size_bounded_keeps_largest_counters(self):
        mechanism = PrunedClientVVMechanism(2)
        vv = VersionVector({"old": 1, "mid": 5, "new": 9})
        pruned = mechanism.prune(vv)
        assert pruned.actors() == {"mid", "new"}
        assert mechanism.pruned_entries == 1

    def test_size_bounded_no_op_under_threshold(self):
        mechanism = PrunedClientVVMechanism(5)
        vv = VersionVector({"A": 1})
        assert mechanism.prune(vv) == vv
        assert mechanism.pruned_entries == 0

    def test_size_bounded_validation(self):
        with pytest.raises(ValueError):
            PrunedClientVVMechanism(0)

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_negative_bounds_rejected(self, bound):
        with pytest.raises(ValueError, match="max_entries must be >= 1"):
            PrunedClientVVMechanism(bound)

    def test_a_bound_of_one_keeps_the_largest_counter(self):
        mechanism = PrunedClientVVMechanism(1)
        pruned = mechanism.prune(VersionVector({"A": 3, "B": 8, "C": 2}))
        assert pruned == VersionVector({"B": 8})
        assert mechanism.pruned_entries == 2

    def test_ties_are_broken_by_actor_id(self):
        mechanism = PrunedClientVVMechanism(2)
        pruned = mechanism.prune(VersionVector({"c": 4, "a": 4, "b": 4}))
        assert pruned.actors() == {"a", "b"}

    def test_a_vector_exactly_at_the_bound_is_returned_unchanged(self):
        mechanism = PrunedClientVVMechanism(3)
        vv = VersionVector({"A": 1, "B": 2, "C": 3})
        assert mechanism.prune(vv) is vv
        assert mechanism.pruned_entries == 0

    def test_pruned_entries_accumulate_across_vectors(self):
        mechanism = PrunedClientVVMechanism(2)
        mechanism.prune(VersionVector({"A": 1, "B": 2, "C": 3}))
        mechanism.prune(VersionVector({"A": 1, "B": 2, "C": 3, "D": 4}))
        assert mechanism.pruned_entries == 3

    def test_the_bound_is_an_int_not_a_policy_object(self):
        class Policy:
            name = "size<=5"
            max_entries = 5

        with pytest.raises(TypeError):
            PrunedClientVVMechanism(Policy())


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
        pruned = PrunedClientVVMechanism(5)
        exact_state = self._concurrent_writer_state(exact, 20)
        pruned_state = self._concurrent_writer_state(pruned, 20)
        assert pruned.metadata_entries(pruned_state) <= 5 * max(1, len(pruned.siblings(pruned_state)))
        assert pruned.metadata_entries(pruned_state) < exact.metadata_entries(exact_state)

    def test_every_stored_clock_fits_the_bound_after_a_write(self):
        mechanism = PrunedClientVVMechanism(2)
        state = mechanism.empty_state()
        for index in range(6):
            context = mechanism.read(state).context
            state = mechanism.write(state, context,
                                    sibling(f"v{index}", f"client-{index}", 1), "A")
            assert all(len(clock) <= 2 for clock, _ in state)
        assert mechanism.pruned_entries > 0

    def test_pruning_discards_causal_information(self):
        """A pruned vector no longer descends vectors it used to descend —
        the information loss behind the paper's 'unsafe' warning.  (The
        workload-level damage — lost updates and false concurrency — is
        asserted on a fixed seed in the integration tests and measured by
        benchmark E3.)"""
        chain = VersionVector.empty()
        for index in range(12):
            chain = chain.increment(f"client-{index}")
        pruned_chain = PrunedClientVVMechanism(3).prune(chain)
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
            replay_trace(trace, PrunedClientVVMechanism(5)).store)
        exact_report = check_store(replay_trace(trace, ClientVVMechanism()).store)
        assert exact_report.total_lost_updates == 0
        assert exact_report.total_false_concurrency == 0
        assert (pruned_report.total_lost_updates + pruned_report.total_false_concurrency) > 0

    def test_name_includes_policy(self):
        mechanism = PrunedClientVVMechanism(7)
        assert "7" in mechanism.name
        assert mechanism.exact is False
