"""Behavioural contract tests run against *every* registered causality mechanism.

These are the properties any mechanism must satisfy to be usable by the store
at all (regardless of whether it tracks causality exactly): reads return what
was written, a read-modify-write supersedes what was read, merge is
commutative/idempotent at the sibling level, and metadata accounting is
non-negative and grows with content.
"""

from __future__ import annotations

import pytest

from repro.clocks import Sibling
from repro.core import Dot


def make_sibling(value: str, writer: str, seq: int) -> Sibling:
    return Sibling(value=value, origin_dot=Dot(writer, seq))


def fingerprint(mechanism, state):
    return sorted(sibling.origin_dot for sibling in mechanism.siblings(state))


class TestEmptyState:
    def test_empty_state_has_no_siblings(self, any_mechanism):
        state = any_mechanism.empty_state()
        assert any_mechanism.is_empty(state)
        assert any_mechanism.siblings(state) == []

    def test_empty_state_read(self, any_mechanism):
        read = any_mechanism.read(any_mechanism.empty_state())
        assert read.siblings == []

    def test_empty_metadata_is_zero_entries(self, any_mechanism):
        state = any_mechanism.empty_state()
        assert any_mechanism.metadata_entries(state) == 0
        assert any_mechanism.metadata_bytes(state) >= 0


class TestBasicWriteRead:
    def test_blind_write_is_readable(self, any_mechanism):
        m = any_mechanism
        sibling = make_sibling("v1", "c1", 1)
        state = m.write(m.empty_state(), m.empty_context(), sibling, "A")
        assert [s.value for s in m.siblings(state)] == ["v1"]
        assert not m.is_empty(state)

    def test_read_modify_write_supersedes(self, any_mechanism):
        m = any_mechanism
        first = make_sibling("v1", "c1", 1)
        state = m.write(m.empty_state(), m.empty_context(), first, "A")
        context = m.read(state).context
        second = make_sibling("v2", "c1", 2)
        state = m.write(state, context, second, "A")
        assert [s.value for s in m.siblings(state)] == ["v2"]

    def test_chain_of_rmw_keeps_single_version(self, any_mechanism):
        m = any_mechanism
        state = m.empty_state()
        for seq in range(1, 6):
            context = m.read(state).context
            sibling = make_sibling(f"v{seq}", "c1", seq)
            state = m.write(state, context, sibling, "A")
        assert [s.value for s in m.siblings(state)] == ["v5"]

    def test_metadata_grows_after_write(self, any_mechanism):
        m = any_mechanism
        state = m.write(m.empty_state(), m.empty_context(), make_sibling("v1", "c1", 1), "A")
        assert m.metadata_entries(state) >= 1
        assert m.metadata_bytes(state) > 0

    def test_context_accounting_non_negative(self, any_mechanism):
        m = any_mechanism
        state = m.write(m.empty_state(), m.empty_context(), make_sibling("v1", "c1", 1), "A")
        context = m.read(state).context
        assert m.context_bytes(context) >= 0


class TestConcurrentWrites:
    def test_blind_concurrent_writes_create_siblings(self, any_mechanism):
        """Two context-less writes by different clients must both be visible
        at the coordinator (even inexact mechanisms detect this case)."""
        m = any_mechanism
        state = m.write(m.empty_state(), m.empty_context(), make_sibling("x", "c1", 1), "A")
        state = m.write(state, m.empty_context(), make_sibling("y", "c2", 1), "A")
        values = sorted(s.value for s in m.siblings(state))
        assert values == ["x", "y"]


class TestMerge:
    def _two_replica_states(self, m):
        shared = make_sibling("base", "c0", 1)
        state_a = m.write(m.empty_state(), m.empty_context(), shared, "A")
        state_b = m.write(m.empty_state(), m.empty_context(),
                          make_sibling("other", "c9", 1), "B")
        return state_a, state_b

    def test_merge_with_empty_is_identity_on_siblings(self, any_mechanism):
        m = any_mechanism
        state_a, _ = self._two_replica_states(m)
        merged = m.merge(state_a, m.empty_state())
        assert fingerprint(m, merged) == fingerprint(m, state_a)
        merged = m.merge(m.empty_state(), state_a)
        assert fingerprint(m, merged) == fingerprint(m, state_a)

    def test_merge_commutative_on_siblings(self, any_mechanism):
        m = any_mechanism
        state_a, state_b = self._two_replica_states(m)
        assert fingerprint(m, m.merge(state_a, state_b)) == fingerprint(m, m.merge(state_b, state_a))

    def test_merge_idempotent_on_siblings(self, any_mechanism):
        m = any_mechanism
        state_a, state_b = self._two_replica_states(m)
        merged = m.merge(state_a, state_b)
        assert fingerprint(m, m.merge(merged, merged)) == fingerprint(m, merged)

    def test_merge_keeps_unrelated_writes(self, any_mechanism):
        m = any_mechanism
        state_a, state_b = self._two_replica_states(m)
        merged = m.merge(state_a, state_b)
        values = sorted(s.value for s in m.siblings(merged))
        assert values == ["base", "other"]

    def test_merge_propagates_newer_version(self, any_mechanism):
        """A replica that missed an update learns it via merge."""
        m = any_mechanism
        first = make_sibling("v1", "c1", 1)
        state_a = m.write(m.empty_state(), m.empty_context(), first, "A")
        state_b = m.merge(m.empty_state(), state_a)

        context = m.read(state_a).context
        second = make_sibling("v2", "c1", 2)
        state_a = m.write(state_a, context, second, "A")

        state_b = m.merge(state_b, state_a)
        assert [s.value for s in m.siblings(state_b)] == ["v2"]
