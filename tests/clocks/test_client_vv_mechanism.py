"""Tests for the per-client version-vector baseline (Riak pre-DVV) and the
WinFS-style dotted-VVE mechanism."""

from __future__ import annotations

from repro.clocks import ClientVVMechanism, DottedVVEMechanism, Sibling
from repro.core import Dot


def sibling(value, writer, seq):
    dot = Dot(writer, seq)
    return Sibling(value=value, origin_dot=dot, writer=writer)


class TestClientVVCorrectness:
    def test_concurrent_client_writes_kept(self):
        m = ClientVVMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A", "c1")
        stale = m.read(state).context
        state = m.write(state, stale, sibling("v2", "c1", 2), "A", "c1")
        state = m.write(state, stale, sibling("v3", "c2", 1), "A", "c2")
        assert sorted(s.value for s in m.siblings(state)) == ["v2", "v3"]

    def test_concurrency_survives_merge(self):
        m = ClientVVMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A", "c1")
        stale = m.read(state).context
        state = m.write(state, stale, sibling("v2", "c1", 2), "A", "c1")
        state = m.write(state, stale, sibling("v3", "c2", 1), "A", "c2")
        replica_b = m.merge(m.empty_state(), state)
        assert sorted(s.value for s in m.siblings(replica_b)) == ["v2", "v3"]

    def test_same_client_writing_through_two_servers_keeps_counter_monotone(self):
        """The mint step must clear counters seen via other coordinators."""
        m = ClientVVMechanism()
        state_a = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A", "c1")
        # replica B learns about v1
        state_b = m.merge(m.empty_state(), state_a)
        ctx = m.read(state_b).context
        state_b = m.write(state_b, ctx, sibling("v2", "c1", 2), "B", "c1")
        (clock, _), = state_b
        assert clock.get("c1") == 2


class TestClientVVGrowth:
    def test_metadata_entries_grow_with_number_of_clients(self):
        """The inefficiency the paper points out: one VV entry per client."""
        m = ClientVVMechanism()
        state = m.empty_state()
        client_count = 25
        for index in range(client_count):
            context = m.read(state).context
            state = m.write(state, context, sibling(f"v{index}", f"client-{index}", 1),
                            "A", f"client-{index}")
        # a single surviving sibling, but its vector has one entry per client
        assert len(m.siblings(state)) == 1
        assert m.metadata_entries(state) == client_count

    def test_context_grows_with_number_of_clients(self):
        m = ClientVVMechanism()
        state = m.empty_state()
        for index in range(10):
            context = m.read(state).context
            state = m.write(state, context, sibling(f"v{index}", f"client-{index}", 1),
                            "A", f"client-{index}")
        assert m.context_entries(m.read(state).context) == 10


class TestDottedVVEMechanism:
    def test_preserves_concurrency_like_dvv(self):
        m = DottedVVEMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A", "c1")
        stale = m.read(state).context
        state = m.write(state, stale, sibling("v2", "c1", 2), "A", "c1")
        state = m.write(state, stale, sibling("v3", "c2", 1), "A", "c2")
        replica_b = m.merge(m.empty_state(), state)
        assert sorted(s.value for s in m.siblings(replica_b)) == ["v2", "v3"]

    def test_dots_minted_per_server(self):
        m = DottedVVEMechanism()
        state = m.write(m.empty_state(), m.empty_context(), sibling("v1", "c1", 1), "A", "c1")
        (clock, _), = state
        assert clock.dot == Dot("A", 1)

    def test_interleaved_writes_accumulate_exceptions(self):
        """Interleaving concurrent writes through two servers gives VVE pasts
        with exceptions — the footprint overhead measured by experiment E6."""
        m = DottedVVEMechanism()
        state = m.empty_state()
        # two concurrent branches from the same (empty) context
        state = m.write(state, m.empty_context(), sibling("left", "c1", 1), "A", "c1")
        state = m.write(state, m.empty_context(), sibling("right", "c2", 1), "A", "c2")
        # a client that read only the *second* branch writes again
        from repro.clocks.vve import VersionVectorWithExceptions
        partial_context = VersionVectorWithExceptions.from_dots([Dot("A", 2)])
        state = m.write(state, partial_context, sibling("third", "c3", 1), "A", "c3")
        clocks = [clock for clock, _ in state]
        assert any(clock.causal_past.exceptions for clock in clocks)

    def test_metadata_at_least_as_large_as_dvv(self):
        from repro.clocks import DVVMechanism
        vve_m, dvv_m = DottedVVEMechanism(), DVVMechanism()
        vve_state, dvv_state = vve_m.empty_state(), dvv_m.empty_state()
        for index in range(12):
            vve_ctx = vve_m.read(vve_state).context
            dvv_ctx = dvv_m.read(dvv_state).context
            writer = f"c{index}"
            coordinator = "A" if index % 2 else "B"
            vve_state = vve_m.write(vve_state, vve_ctx, sibling(f"v{index}", writer, 1),
                                    coordinator, writer)
            dvv_state = dvv_m.write(dvv_state, dvv_ctx, sibling(f"v{index}", writer, 1),
                                    coordinator, writer)
        assert vve_m.metadata_bytes(vve_state) >= dvv_m.metadata_bytes(dvv_state)
