"""Unit tests for the DVV and DVVSet mechanisms (the paper's proposal)."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, DVVSetMechanism, Sibling
from repro.core import Dot, VersionVector


def sibling(value, writer, seq):
    return Sibling(value=value, origin_dot=Dot(writer, seq))


@pytest.fixture(params=[DVVMechanism, DVVSetMechanism], ids=["dvv", "dvvset"])
def mechanism(request):
    return request.param()


class TestFigure1cBehaviour:
    def test_stale_context_write_creates_concurrent_siblings(self, mechanism):
        m = mechanism
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A")
        context_after_v1 = m.read(state).context

        state = m.write(state, context_after_v1, sibling("v2", "c1", 2), "A")
        # c2 still holds the context from before v2 existed.
        state = m.write(state, context_after_v1, sibling("v3", "c2", 1), "A")

        assert sorted(s.value for s in m.siblings(state)) == ["v2", "v3"]

    def test_siblings_survive_replica_merge(self, mechanism):
        m = mechanism
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A")
        ctx = m.read(state).context
        state = m.write(state, ctx, sibling("v2", "c1", 2), "A")
        state = m.write(state, ctx, sibling("v3", "c2", 1), "A")

        replica_b = m.merge(m.empty_state(), state)
        assert sorted(s.value for s in m.siblings(replica_b)) == ["v2", "v3"]

    def test_resolving_write_collapses_siblings(self, mechanism):
        m = mechanism
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A")
        ctx = m.read(state).context
        state = m.write(state, ctx, sibling("v2", "c1", 2), "A")
        state = m.write(state, ctx, sibling("v3", "c2", 1), "A")

        resolving_ctx = m.read(state).context
        state = m.write(state, resolving_ctx, sibling("v4", "c3", 1), "A")
        assert [s.value for s in m.siblings(state)] == ["v4"]


class TestMetadataBounds:
    def test_metadata_entries_bounded_by_servers_not_clients(self, mechanism):
        """The paper's size claim: many clients through few servers stays small."""
        m = mechanism
        servers = ["A", "B", "C"]
        state = m.empty_state()
        for index in range(60):
            client = f"client-{index}"
            coordinator = servers[index % len(servers)]
            context = m.read(state).context
            state = m.write(state, context, sibling(f"v{index}", client, 1), coordinator)
        siblings_now = m.siblings(state)
        assert len(siblings_now) == 1  # read-modify-write chain: single survivor
        # With one live sibling the metadata is at most one entry per server
        # (plus the dot for the per-sibling DVV representation).
        assert m.metadata_entries(state) <= len(servers) + 1

    def test_context_entries_bounded_by_servers(self, mechanism):
        m = mechanism
        servers = ["A", "B", "C"]
        state = m.empty_state()
        for index in range(30):
            context = m.read(state).context
            state = m.write(state, context, sibling(f"v{index}", f"c{index}", 1),
                            servers[index % 3])
        final_context = m.read(state).context
        assert len(final_context) <= len(servers)


class TestDVVSpecifics:
    def test_dvv_clocks_have_server_dots(self):
        m = DVVMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A")
        (clock, stored), = state
        assert clock.dot.actor == "A"
        assert stored.value == "v1"

    def test_dvv_context_is_join_of_clocks(self):
        m = DVVMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A")
        state = m.write(state, m.empty_context(), sibling("v2", "c2", 1), "B")
        context = m.read(state).context
        assert context == VersionVector({"A": 1, "B": 1})

    def test_merge_prefers_more_informed_duplicate(self):
        """Same dot seen with different pasts (read repair race) keeps the
        larger past."""
        m = DVVMechanism()
        from repro.core import DottedVersionVector
        weaker = ((DottedVersionVector(Dot("A", 1)), sibling("v", "c1", 1)),)
        stronger = ((DottedVersionVector(Dot("A", 1), VersionVector({"B": 1})),
                     sibling("v", "c1", 1)),)
        merged = m.merge(weaker, stronger)
        (clock, _), = merged
        assert clock.causal_past == VersionVector({"B": 1})


class TestDVVSetSpecifics:
    def test_state_is_single_clock(self):
        m = DVVSetMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A")
        assert state.entry_count() == 1
        assert state.counter("A") == 1

    def test_entry_count_stays_at_server_count_under_churn(self):
        m = DVVSetMechanism()
        state = m.empty_state()
        for index in range(40):
            context = m.read(state).context
            state = m.write(state, context, sibling(f"v{index}", f"c{index}", 1),
                            "A" if index % 2 else "B")
        assert state.entry_count() == 2
