"""Unit tests for read repair planning."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, Sibling
from repro.core import Dot
from repro.kvstore import ReadRepairStats, plan_read_repair


def sibling(value, writer="c1", seq=1):
    dot = Dot(writer, seq)
    return Sibling(value=value, origin_dot=dot)


class TestReadRepairPlanning:
    def setup_method(self):
        self.mechanism = DVVMechanism()
        self.fresh = self.mechanism.write(
            self.mechanism.empty_state(), self.mechanism.empty_context(),
            sibling("v1"), "A")

    def test_agreeing_replicas_need_no_repair(self):
        plan = plan_read_repair(self.mechanism, [("A", self.fresh), ("B", self.fresh)])
        assert plan.agreed
        assert plan.stale_replicas == []

    def test_stale_replica_detected(self):
        stale = self.mechanism.empty_state()
        plan = plan_read_repair(self.mechanism, [("A", self.fresh), ("B", stale)])
        assert not plan.agreed
        assert plan.stale_replicas == ["B"]
        assert [s.value for s in self.mechanism.siblings(plan.merged_state)] == ["v1"]

    def test_divergent_replicas_both_repaired(self):
        other = self.mechanism.write(
            self.mechanism.empty_state(), self.mechanism.empty_context(),
            sibling("v2", writer="c2"), "B")
        plan = plan_read_repair(self.mechanism, [("A", self.fresh), ("B", other)])
        assert set(plan.stale_replicas) == {"A", "B"}
        merged_values = sorted(s.value for s in self.mechanism.siblings(plan.merged_state))
        assert merged_values == ["v1", "v2"]

    def test_requires_at_least_one_reply(self):
        with pytest.raises(ValueError):
            plan_read_repair(self.mechanism, [])

    def test_merge_order_does_not_trigger_repair(self):
        """Replicas holding the same versions merged in different orders agree.

        The fingerprint comparison canonicalizes the sibling set, so a replica
        whose internal sibling list is ordered differently from the merged
        state's is not re-sent an identical repair on every read.
        """
        left = self.mechanism.write(
            self.mechanism.empty_state(), self.mechanism.empty_context(),
            sibling("v-left", writer="cL"), "A")
        right = self.mechanism.write(
            self.mechanism.empty_state(), self.mechanism.empty_context(),
            sibling("v-right", writer="cR"), "B")
        merged_ab = self.mechanism.merge(left, right)
        merged_ba = self.mechanism.merge(right, left)
        plan = plan_read_repair(self.mechanism, [("A", merged_ab), ("B", merged_ba)])
        assert plan.agreed
        assert plan.stale_replicas == []

    def test_reordered_sibling_lists_compare_equal(self):
        """An order-perturbing mechanism view still yields an agreeing plan."""

        class ReorderingView(DVVMechanism):
            """Returns the sibling list in alternating order per call."""

            def __init__(self):
                super().__init__()
                self._flip = False

            def siblings(self, state):
                result = list(super().siblings(state))
                self._flip = not self._flip
                return list(reversed(result)) if self._flip else result

        mechanism = ReorderingView()
        state = mechanism.merge(
            mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                            sibling("x", writer="c1"), "A"),
            mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                            sibling("y", writer="c2"), "B"),
        )
        plan = plan_read_repair(mechanism, [("A", state), ("B", state)])
        assert plan.agreed
        assert plan.stale_replicas == []

    def test_stats_accumulation(self):
        stats = ReadRepairStats()
        stats.record(plan_read_repair(self.mechanism, [("A", self.fresh), ("B", self.fresh)]))
        stats.record(plan_read_repair(self.mechanism,
                                      [("A", self.fresh), ("B", self.mechanism.empty_state())]))
        assert stats.reads_checked == 2
        assert stats.repairs_triggered == 1
        assert stats.replicas_repaired == 1

