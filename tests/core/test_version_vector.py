"""Unit tests for :mod:`repro.core.version_vector`."""

from __future__ import annotations

import pytest

from repro.core import Dot, InvalidClockError, Ordering, VersionVector


class TestConstruction:
    def test_empty(self):
        vv = VersionVector.empty()
        assert len(vv) == 0
        assert not vv
        assert vv.get("anything") == 0

    def test_zero_entries_are_dropped(self):
        vv = VersionVector({"A": 3, "B": 0})
        assert vv.actors() == {"A"}
        assert vv.get("B") == 0

    def test_invalid_counter_rejected(self):
        with pytest.raises(InvalidClockError):
            VersionVector({"A": -1})
        with pytest.raises(InvalidClockError):
            VersionVector({"A": 1.5})

    def test_invalid_actor_rejected(self):
        with pytest.raises(InvalidClockError):
            VersionVector({"": 1})

    def test_from_dots_rounds_up_to_prefix(self):
        vv = VersionVector.from_dots([Dot("A", 3), Dot("B", 1)])
        assert vv.get("A") == 3
        assert vv.get("B") == 1
        # from_dots keeps only the maximum per actor
        assert VersionVector.from_dots([Dot("A", 2), Dot("A", 5)]).get("A") == 5

    def test_single(self):
        assert VersionVector.single("A", 4) == VersionVector({"A": 4})


class TestEventsAndMerge:
    def test_increment_returns_new_vector(self):
        vv = VersionVector({"A": 1})
        vv2 = vv.increment("A")
        assert vv.get("A") == 1
        assert vv2.get("A") == 2

    def test_event_returns_dot(self):
        vv, d = VersionVector.empty().event("A")
        assert d == Dot("A", 1)
        assert vv.get("A") == 1

    def test_merge_is_pointwise_max(self):
        a = VersionVector({"A": 3, "B": 1})
        b = VersionVector({"A": 1, "B": 4, "C": 2})
        merged = a.merge(b)
        assert merged == VersionVector({"A": 3, "B": 4, "C": 2})

    def test_merge_commutative_and_idempotent(self):
        a = VersionVector({"A": 3, "B": 1})
        b = VersionVector({"B": 4, "C": 2})
        assert a.merge(b) == b.merge(a)
        assert a.merge(a) == a

    def test_with_entry(self):
        vv = VersionVector({"A": 3, "B": 1})
        assert vv.with_entry("B", 5).get("B") == 5
        assert vv.with_entry("B", 0).actors() == {"A"}


class TestComparison:
    def test_equal(self):
        assert VersionVector({"A": 1}).compare(VersionVector({"A": 1})) is Ordering.EQUAL

    def test_before_and_after(self):
        small = VersionVector({"A": 1})
        big = VersionVector({"A": 2, "B": 1})
        assert small.compare(big) is Ordering.BEFORE
        assert big.compare(small) is Ordering.AFTER

    def test_concurrent(self):
        a = VersionVector({"A": 2})
        b = VersionVector({"B": 1})
        assert a.compare(b) is Ordering.CONCURRENT
        assert a.concurrent_with(b)

    def test_missing_entries_treated_as_zero(self):
        assert VersionVector({}).compare(VersionVector({"A": 1})) is Ordering.BEFORE

    def test_descends_and_dominates(self):
        big = VersionVector({"A": 2, "B": 1})
        small = VersionVector({"A": 1})
        assert big.descends(small)
        assert big.dominates(small)
        assert big.descends(big)
        assert not big.dominates(big)
        assert not small.descends(big)

    def test_contains_dot_is_prefix_membership(self):
        vv = VersionVector({"A": 3})
        assert vv.contains_dot(Dot("A", 1))
        assert vv.contains_dot(Dot("A", 3))
        assert not vv.contains_dot(Dot("A", 4))
        assert not vv.contains_dot(Dot("B", 1))


class TestIntrospection:
    def test_dots_enumeration(self):
        vv = VersionVector({"A": 2, "B": 1})
        assert set(vv.dots()) == {Dot("A", 1), Dot("A", 2), Dot("B", 1)}

    def test_total_events(self):
        assert VersionVector({"A": 2, "B": 3}).total_events() == 5

    def test_hash_and_str(self):
        a = VersionVector({"A": 1, "B": 2})
        b = VersionVector({"B": 2, "A": 1})
        assert hash(a) == hash(b)
        assert str(a) == "[A:1, B:2]"

