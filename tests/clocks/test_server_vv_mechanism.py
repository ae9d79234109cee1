"""Tests for the per-server version-vector baseline (Figure 1b failure mode)."""

from __future__ import annotations

from repro.clocks import DVVMechanism, ServerVVMechanism, Sibling
from repro.core import Dot, Ordering


def sibling(value, writer, seq):
    dot = Dot(writer, seq)
    return Sibling(value=value, origin_dot=dot, writer=writer)


def figure1_coordinator_state(mechanism):
    """Drive the coordinator through the Figure 1 write sequence."""
    m = mechanism
    state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A", "c1")
    stale_context = m.read(state).context
    state = m.write(state, stale_context, sibling("v2", "c1", 2), "A", "c1")
    state = m.write(state, stale_context, sibling("v3", "c2", 1), "A", "c2")
    return m, state


class TestConflictDetectionAtCoordinator:
    def test_coordinator_detects_the_conflict(self):
        """At the coordinating server both versions are still visible
        (the paper: 'the same strategy can be used to detect concurrent
        writes from two clients')."""
        m, state = figure1_coordinator_state(ServerVVMechanism())
        assert sorted(s.value for s in m.siblings(state)) == ["v2", "v3"]

    def test_minted_vvs_falsely_dominate(self):
        """The problem: v3's vector dominates v2's ([2,0] < [3,0])."""
        m, state = figure1_coordinator_state(ServerVVMechanism())
        clocks = {stored.value: clock for clock, stored in state}
        assert clocks["v2"].compare(clocks["v3"]) is Ordering.BEFORE


class TestLostUpdateAtMerge:
    def test_merge_at_other_replica_drops_a_concurrent_version(self):
        """Figure 1b's lost update: after the server sync only one of the two
        concurrent versions survives."""
        m, state = figure1_coordinator_state(ServerVVMechanism())
        replica_b = m.merge(m.empty_state(), state)
        values = sorted(s.value for s in m.siblings(replica_b))
        assert values == ["v3"]          # v2 is gone

    def test_dvv_does_not_lose_the_update_on_the_same_trace(self):
        """Direct contrast with the mechanism the paper proposes."""
        m, state = figure1_coordinator_state(DVVMechanism())
        replica_b = m.merge(m.empty_state(), state)
        values = sorted(s.value for s in m.siblings(replica_b))
        assert values == ["v2", "v3"]

    def test_mechanism_is_flagged_inexact(self):
        assert ServerVVMechanism.exact is False
        assert DVVMechanism.exact is True


class TestSizeCharacteristics:
    def test_metadata_entries_bounded_by_servers(self):
        m = ServerVVMechanism()
        state = m.empty_state()
        for index in range(30):
            context = m.read(state).context
            state = m.write(state, context, sibling(f"v{index}", f"c{index}", 1),
                            "A" if index % 2 else "B", f"c{index}")
        # a single surviving version tagged by a vector over at most 2 servers
        assert m.metadata_entries(state) <= 2
