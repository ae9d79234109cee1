"""Unit tests for :mod:`repro.core.dot`."""

from __future__ import annotations

import pytest

from repro.core import Dot, InvalidDotError, dot


class TestDotConstruction:
    def test_basic_construction(self):
        d = Dot("A", 3)
        assert d.actor == "A"
        assert d.counter == 3

    def test_factory_function(self):
        assert dot("srv-1", 7) == Dot("srv-1", 7)

    def test_counter_must_be_positive(self):
        with pytest.raises(InvalidDotError):
            Dot("A", 0)
        with pytest.raises(InvalidDotError):
            Dot("A", -2)

    def test_counter_must_be_int(self):
        with pytest.raises(InvalidDotError):
            Dot("A", 1.5)
        with pytest.raises(InvalidDotError):
            Dot("A", True)

    def test_actor_must_be_non_empty_string(self):
        with pytest.raises(InvalidDotError):
            Dot("", 1)
        with pytest.raises(InvalidDotError):
            Dot(7, 1)


class TestDotBehaviour:
    def test_equality_and_hash(self):
        assert Dot("A", 1) == Dot("A", 1)
        assert Dot("A", 1) != Dot("A", 2)
        assert Dot("A", 1) != Dot("B", 1)
        assert len({Dot("A", 1), Dot("A", 1), Dot("B", 1)}) == 2

    def test_total_order_is_lexicographic(self):
        assert Dot("A", 2) < Dot("A", 3)
        assert Dot("A", 9) < Dot("B", 1)
        assert sorted([Dot("B", 1), Dot("A", 2), Dot("A", 1)]) == [
            Dot("A", 1), Dot("A", 2), Dot("B", 1)
        ]

    def test_next(self):
        assert Dot("A", 1).next() == Dot("A", 2)
        assert Dot("A", 5).next().counter == 6

    def test_str(self):
        assert str(Dot("A", 3)) == "(A,3)"

    def test_immutability(self):
        d = Dot("A", 1)
        with pytest.raises(Exception):
            d.counter = 2  # type: ignore[misc]
