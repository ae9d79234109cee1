"""Unit tests for :mod:`repro.clocks.vve` (version vectors with exceptions)."""

from __future__ import annotations

import pytest

from repro.clocks import DottedVVE, VersionVectorWithExceptions
from repro.core import Dot, InvalidClockError, Ordering


class TestConstruction:
    def test_empty(self):
        vve = VersionVectorWithExceptions.empty()
        assert len(vve) == 0
        assert list(vve.dots()) == []

    def test_from_dots_builds_exact_set(self):
        vve = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 3)])
        assert vve.contains_dot(Dot("A", 1))
        assert not vve.contains_dot(Dot("A", 2))
        assert vve.contains_dot(Dot("A", 3))
        assert vve.exceptions == frozenset({Dot("A", 2)})

    def test_exception_above_base_rejected(self):
        with pytest.raises(InvalidClockError):
            VersionVectorWithExceptions({"A": 2}, [Dot("A", 3)])


class TestAddAndMerge:
    def test_add_dot_above_base_creates_exceptions(self):
        vve = VersionVectorWithExceptions.empty().add_dot(Dot("A", 3))
        assert vve.base.get("A") == 3
        assert vve.exceptions == frozenset({Dot("A", 1), Dot("A", 2)})

    def test_add_dot_fills_exception(self):
        vve = VersionVectorWithExceptions.empty().add_dot(Dot("A", 3)).add_dot(Dot("A", 2))
        assert vve.exceptions == frozenset({Dot("A", 1)})

    def test_add_existing_dot_is_noop(self):
        vve = VersionVectorWithExceptions.from_dots([Dot("A", 1)])
        assert vve.add_dot(Dot("A", 1)) == vve

    def test_merge_is_set_union(self):
        left = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 3)])
        right = VersionVectorWithExceptions.from_dots([Dot("A", 2), Dot("B", 1)])
        merged = left.merge(right)
        assert set(merged.dots()) == {Dot("A", 1), Dot("A", 2), Dot("A", 3), Dot("B", 1)}
        assert merged.exceptions == frozenset()

    def test_merge_commutative_idempotent(self):
        left = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 4)])
        right = VersionVectorWithExceptions.from_dots([Dot("B", 2)])
        assert left.merge(right) == right.merge(left)
        assert left.merge(left) == left

    def test_next_dot(self):
        vve = VersionVectorWithExceptions.from_dots([Dot("A", 2)])
        assert vve.next_dot("A") == Dot("A", 3)
        assert vve.next_dot("B") == Dot("B", 1)


class TestComparison:
    def test_exact_subset_ordering(self):
        small = VersionVectorWithExceptions.from_dots([Dot("A", 1)])
        big = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 2)])
        assert small.compare(big) is Ordering.BEFORE
        assert big.compare(small) is Ordering.AFTER

    def test_gap_breaks_descent(self):
        """[A:3 minus A2] does not descend [A:2] — unlike a plain VV."""
        with_gap = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 3)])
        prefix = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 2)])
        assert with_gap.compare(prefix) is Ordering.CONCURRENT

    def test_equal(self):
        a = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("B", 2)])
        b = VersionVectorWithExceptions.from_dots([Dot("B", 2), Dot("A", 1)])
        assert a.compare(b) is Ordering.EQUAL
        assert hash(a) == hash(b)

    def test_entry_count_includes_exceptions(self):
        vve = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 4)])
        # base entry for A plus exceptions {A2, A3}
        assert vve.entry_count() == 3

    def test_to_causal_history(self):
        vve = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("A", 3)])
        assert vve.to_causal_history().events() == frozenset({Dot("A", 1), Dot("A", 3)})


class TestDottedVVE:
    def test_o1_happens_before(self):
        past = VersionVectorWithExceptions.from_dots([Dot("A", 1)])
        first = DottedVVE(Dot("A", 1), VersionVectorWithExceptions.empty())
        second = DottedVVE(Dot("A", 2), past)
        assert first.happens_before(second)
        assert second.compare(first) is Ordering.AFTER

    def test_concurrent_dotted_vve(self):
        shared_past = VersionVectorWithExceptions.from_dots([Dot("A", 1)])
        left = DottedVVE(Dot("A", 2), shared_past)
        right = DottedVVE(Dot("A", 3), shared_past)
        assert left.compare(right) is Ordering.CONCURRENT

    def test_to_causal_history_and_entry_count(self):
        past = VersionVectorWithExceptions.from_dots([Dot("A", 1), Dot("B", 2)])
        clock = DottedVVE(Dot("A", 3), past)
        history = clock.to_causal_history()
        assert history.event == Dot("A", 3)
        assert Dot("B", 2) in history
        assert Dot("B", 1) not in history  # the VVE past is exact, not a prefix
        assert clock.entry_count() == past.entry_count() + 1
