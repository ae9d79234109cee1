"""Causal ordering results and generic comparison helpers.

Every causality mechanism in this library (causal histories, version vectors,
dotted version vectors, version vectors with exceptions, ...) can relate two
values in exactly one of four ways, captured by :class:`Ordering`:

* ``BEFORE``     — the first value causally precedes the second.
* ``AFTER``      — the first value causally follows the second.
* ``EQUAL``      — the two values describe the same causal history.
* ``CONCURRENT`` — neither precedes the other.

The module also exposes :func:`compare`, a structural dispatcher that works on
any pair of objects implementing the small ``compare(other) -> Ordering``
protocol, plus boolean convenience wrappers used throughout the store and the
analysis code.
"""

from __future__ import annotations

import enum
from typing import Protocol, runtime_checkable

from .exceptions import IncomparableError


class Ordering(enum.Enum):
    """Outcome of comparing two causally-related values."""

    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"

    def inverse(self) -> "Ordering":
        """Return the ordering seen from the other operand's point of view."""
        if self is Ordering.BEFORE:
            return Ordering.AFTER
        if self is Ordering.AFTER:
            return Ordering.BEFORE
        return self


@runtime_checkable
class Comparable(Protocol):
    """Protocol implemented by every clock type in the library."""

    def compare(self, other: "Comparable") -> Ordering:  # pragma: no cover - protocol
        """Return the causal ordering between ``self`` and ``other``."""
        ...


def compare(a: Comparable, b: Comparable) -> Ordering:
    """Compare two clock values of the same mechanism.

    This is a thin wrapper over ``a.compare(b)`` that exists so call sites can
    stay symmetric (``compare(a, b)``) and so analysis code can be written
    against a single free function.
    """
    return a.compare(b)


def happens_before(a: Comparable, b: Comparable) -> bool:
    """True iff ``a`` causally precedes ``b`` (strictly)."""
    return compare(a, b) is Ordering.BEFORE


def happens_after(a: Comparable, b: Comparable) -> bool:
    """True iff ``a`` causally follows ``b`` (strictly)."""
    return compare(a, b) is Ordering.AFTER


def concurrent(a: Comparable, b: Comparable) -> bool:
    """True iff neither value causally precedes the other."""
    return compare(a, b) is Ordering.CONCURRENT


def equivalent(a: Comparable, b: Comparable) -> bool:
    """True iff the two values describe the same causal history."""
    return compare(a, b) is Ordering.EQUAL


def dominates(a: Comparable, b: Comparable) -> bool:
    """True iff ``a`` is causally at or after ``b`` (``EQUAL`` or ``AFTER``)."""
    return compare(a, b) in (Ordering.EQUAL, Ordering.AFTER)


def strictly_ordered(a: Comparable, b: Comparable) -> Ordering:
    """Like :func:`compare` but raising when the values are concurrent.

    Useful in code paths (e.g. log truncation) that require a total order and
    would silently misbehave on concurrent inputs.
    """
    result = compare(a, b)
    if result is Ordering.CONCURRENT:
        raise IncomparableError(f"values are concurrent: {a!r} || {b!r}")
    return result
