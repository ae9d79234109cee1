"""Causal histories: the reference model for causality.

Causal histories (Schwarz & Mattern, reference [5] in the paper) characterise
causality *exactly*: each event ``a`` is assigned a fresh unique identifier
``id_a`` and its causal history is the set ``H_a = {id_a} ∪ P_a`` where ``P_a``
contains the identifiers of every event that causally precedes ``a``.  Set
inclusion then decides the happens-before relation precisely::

    H_a ⊂ H_b      ⇒  a happened before b
    H_a ⊄ H_b and H_b ⊄ H_a  ⇒  a ∥ b  (concurrent)

The representation is expensive — the sets grow without bound — which is why
practical systems use version vectors or dotted version vectors instead.  In
this library causal histories play the role of the *ground-truth oracle*: every
compact mechanism is checked (in the property-based tests and in
:mod:`repro.analysis.correctness`) against the orderings computed here, via the
denotation functions in :mod:`repro.core.semantics`.

This module corresponds to Figure 1a of the paper.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Iterator, Optional

from .comparison import Ordering
from .dot import Actor, Dot
from .exceptions import InvalidClockError


class CausalHistory:
    """An explicit, immutable set of event identifiers (dots).

    ``CausalHistory`` keeps the *version identifier* of the event it describes
    separate from the rest of the set, mirroring the paper's presentation (the
    underlined bold identifier in Figure 1a).  The full history — the set the
    formal model works with — is ``{event} ∪ past`` and is what
    :meth:`events` returns and what comparisons operate on.
    """

    __slots__ = ("_event", "_past", "_encoded")

    def __init__(self, event: Optional[Dot] = None, past: Iterable[Dot] = ()) -> None:
        past_set = frozenset(past)
        for entry in past_set:
            if not isinstance(entry, Dot):
                raise InvalidClockError(f"causal history entries must be Dots, got {entry!r}")
        if event is not None and not isinstance(event, Dot):
            raise InvalidClockError(f"causal history event must be a Dot, got {event!r}")
        object.__setattr__(self, "_event", event)
        object.__setattr__(
            self, "_past", past_set - ({event} if event is not None else frozenset())
        )
        object.__setattr__(self, "_encoded", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"CausalHistory is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"CausalHistory is immutable; cannot delete {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "CausalHistory":
        """The history of "no events yet" (bottom of the lattice)."""
        return cls(None, ())

    @classmethod
    def from_events(cls, events: Iterable[Dot], event: Optional[Dot] = None) -> "CausalHistory":
        """Build a history from an arbitrary set of events.

        ``event`` optionally marks which member is the version identifier; the
        remaining members become the causal past.
        """
        events = frozenset(events)
        if event is not None and event not in events:
            events = events | {event}
        return cls(event, events)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def event(self) -> Optional[Dot]:
        """The identifier of the event this history describes (the "dot")."""
        return self._event

    @property
    def past(self) -> FrozenSet[Dot]:
        """The identifiers of the events that causally precede :attr:`event`."""
        return self._past

    def events(self) -> FrozenSet[Dot]:
        """The complete history ``{event} ∪ past``."""
        if self._event is None:
            return self._past
        return self._past | {self._event}

    def __len__(self) -> int:
        return len(self.events())

    def __iter__(self) -> Iterator[Dot]:
        return iter(self.events())

    def __contains__(self, item: Dot) -> bool:
        return item in self.events()

    def contains(self, dot: Dot) -> bool:
        """True iff ``dot`` is part of this history (identifier or past)."""
        return dot in self.events()

    # ------------------------------------------------------------------ #
    # Events and merging
    # ------------------------------------------------------------------ #
    def record_event(self, dot: Dot) -> "CausalHistory":
        """Return the history of a new event ``dot`` that causally follows ``self``.

        The new history has ``dot`` as its identifier and everything already in
        ``self`` as its causal past (``H_new = {dot} ∪ H_self``).
        """
        if dot in self.events():
            raise InvalidClockError(f"event identifier {dot} already present in history")
        return CausalHistory(dot, self.events())

    def merge(self, other: "CausalHistory") -> "CausalHistory":
        """Set-union of two histories, with no distinguished event.

        Merging models the causal past of a synchronisation point: the result
        describes knowledge of every event either side knew about.  A
        subsequent :meth:`record_event` creates the identifier for the merge's
        own write, if any.
        """
        return CausalHistory(None, self.events() | other.events())

    # ------------------------------------------------------------------ #
    # Comparison
    # ------------------------------------------------------------------ #
    def compare(self, other: "CausalHistory") -> Ordering:
        """Precise causal comparison by set inclusion."""
        mine: AbstractSet[Dot] = self.events()
        theirs: AbstractSet[Dot] = other.events()
        if mine == theirs:
            return Ordering.EQUAL
        if mine < theirs:
            return Ordering.BEFORE
        if mine > theirs:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    def happens_before(self, other: "CausalHistory") -> bool:
        """True iff this history strictly precedes ``other``.

        When both histories have a distinguished event identifier the check
        reduces to the paper's containment test ``id_a ∈ H_b ∧ id_a ≠ id_b``;
        otherwise it falls back to strict set inclusion.
        """
        if self._event is not None and other._event is not None:
            return self._event in other.events() and self._event != other._event
        return self.compare(other) is Ordering.BEFORE

    def concurrent_with(self, other: "CausalHistory") -> bool:
        """True iff neither history precedes the other."""
        return self.compare(other) is Ordering.CONCURRENT

    # ------------------------------------------------------------------ #
    # Dunder / formatting
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalHistory):
            return NotImplemented
        return self._event == other._event and self._past == other._past

    def __hash__(self) -> int:
        return hash((self._event, self._past))

    def __repr__(self) -> str:
        return f"CausalHistory(event={self._event!r}, past={sorted(self._past)!r})"

    def __str__(self) -> str:
        def fmt(d: Dot) -> str:
            return f"{d.actor}{d.counter}"

        parts = []
        for entry in sorted(self.events()):
            label = fmt(entry)
            if self._event is not None and entry == self._event:
                label = f"*{label}*"
            parts.append(label)
        return "{" + ",".join(parts) + "}"
