"""Dots: globally unique event identifiers.

A *dot* is the pair ``(actor, counter)`` identifying the ``counter``-th event
produced by ``actor``.  In the terminology of the paper, the dot is the
*version identifier* of a write, kept separate from the causal past so that
causality checks become a single containment test (Section 2 of the brief
announcement).

Dots are small immutable value objects.  They are hashable (usable as set
members and dict keys), totally ordered lexicographically (useful for
deterministic iteration and for sibling ordering in the store — note that this
*total* order is not the causal order), and cheap to copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InvalidDotError

Actor = str
"""Type alias for actor (node / replica / client) identifiers."""


@dataclass(frozen=True, order=True)
class Dot:
    """A globally unique event identifier ``(actor, counter)``.

    Parameters
    ----------
    actor:
        Identifier of the entity that produced the event.  In the storage
        system this is a replica-server id (the paper's key point is that the
        actor space is the set of servers, not the set of clients).
    counter:
        1-based sequence number of the event at ``actor``.  The first event an
        actor produces is numbered 1, matching the paper's convention that the
        first identifier assigned by site ``s_i`` is ``(s_i, 1)``.
    """

    actor: Actor
    counter: int

    def __post_init__(self) -> None:
        if not isinstance(self.actor, str) or not self.actor:
            raise InvalidDotError(f"dot actor must be a non-empty string, got {self.actor!r}")
        if not isinstance(self.counter, int) or isinstance(self.counter, bool):
            raise InvalidDotError(f"dot counter must be an int, got {self.counter!r}")
        if self.counter < 1:
            raise InvalidDotError(f"dot counter must be >= 1, got {self.counter}")

    def next(self) -> "Dot":
        """Return the dot for the next event of the same actor."""
        return Dot(self.actor, self.counter + 1)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.actor},{self.counter})"


def dot(actor: Actor, counter: int) -> Dot:
    """Convenience factory for :class:`Dot` (mirrors the paper's ``(i, n)``)."""
    return Dot(actor, counter)
