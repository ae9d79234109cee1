"""Unit tests for :mod:`repro.core.comparison`."""

from __future__ import annotations

import pytest

from repro.core import (
    IncomparableError,
    Ordering,
    VersionVector,
    compare,
    concurrent,
    dominates,
    equivalent,
    happens_after,
    happens_before,
    strictly_ordered,
)


class TestOrdering:
    def test_inverse(self):
        assert Ordering.BEFORE.inverse() is Ordering.AFTER
        assert Ordering.AFTER.inverse() is Ordering.BEFORE
        assert Ordering.EQUAL.inverse() is Ordering.EQUAL
        assert Ordering.CONCURRENT.inverse() is Ordering.CONCURRENT


class TestHelpers:
    def setup_method(self):
        self.small = VersionVector({"A": 1})
        self.big = VersionVector({"A": 2})
        self.other = VersionVector({"B": 1})

    def test_compare_matches_method(self):
        assert compare(self.small, self.big) is Ordering.BEFORE
        assert compare(self.big, self.small) is Ordering.AFTER

    def test_happens_before_after(self):
        assert happens_before(self.small, self.big)
        assert happens_after(self.big, self.small)
        assert not happens_before(self.big, self.small)

    def test_concurrent_and_equivalent(self):
        assert concurrent(self.small, self.other)
        assert equivalent(self.small, VersionVector({"A": 1}))
        assert not equivalent(self.small, self.big)

    def test_dominates(self):
        assert dominates(self.big, self.small)
        assert dominates(self.small, self.small)
        assert not dominates(self.small, self.big)

    def test_strictly_ordered_raises_on_concurrency(self):
        assert strictly_ordered(self.small, self.big) is Ordering.BEFORE
        with pytest.raises(IncomparableError):
            strictly_ordered(self.small, self.other)
