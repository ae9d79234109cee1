"""Version vectors (Parker et al. 1983), the classic compact causality clock.

A version vector (VV) maps each actor ``s_i`` to an integer ``n_i`` and denotes
the causal history ``{(s_i, m) | 1 <= m <= n_i}`` — i.e. a *contiguous* prefix
of every actor's events.  Comparison is component-wise::

    V_a <= V_b  iff  ∀s. V_a[s] <= V_b[s]

which is exactly set inclusion on the denoted histories, but costs O(n) in the
number of entries.  The paper's critique is that storage systems use the same
VV both to *identify* a version and to record its *causal past*; dotted version
vectors (:mod:`repro.core.dvv`) split those roles.

``VersionVector`` is immutable; every mutating operation returns a new vector.
A mutable builder (:class:`VersionVectorBuilder`) is provided for hot paths in
the simulator where building a vector incrementally matters.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from .comparison import Ordering
from .dot import Actor, Dot
from .exceptions import InvalidClockError


class VersionVector:
    """An immutable mapping from actor ids to event counters.

    Missing actors implicitly map to 0 (no events seen from them), so vectors
    over different actor sets compare correctly without padding.
    """

    __slots__ = ("_entries", "_encoded")

    def __init__(self, entries: Optional[Mapping[Actor, int]] = None) -> None:
        clean: Dict[Actor, int] = {}
        if entries:
            for actor, counter in entries.items():
                if not isinstance(actor, str) or not actor:
                    raise InvalidClockError(f"actor must be a non-empty string, got {actor!r}")
                if not isinstance(counter, int) or isinstance(counter, bool) or counter < 0:
                    raise InvalidClockError(
                        f"counter for {actor!r} must be a non-negative int, got {counter!r}"
                    )
                if counter > 0:
                    clean[actor] = counter
        object.__setattr__(self, "_entries", clean)
        object.__setattr__(self, "_encoded", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"VersionVector is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"VersionVector is immutable; cannot delete {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "VersionVector":
        """The zero vector (denotes the empty causal history)."""
        return cls()

    @classmethod
    def from_dots(cls, dots: Iterable[Dot]) -> "VersionVector":
        """Smallest vector whose denotation contains every given dot.

        Note that this *rounds up*: a vector can only represent contiguous
        prefixes, so ``from_dots([Dot("a", 3)])`` also (implicitly) includes
        ``(a,1)`` and ``(a,2)``.  Use :class:`repro.clocks.vve.VersionVectorWithExceptions`
        when gaps must be represented exactly.
        """
        entries: Dict[Actor, int] = {}
        for d in dots:
            entries[d.actor] = max(entries.get(d.actor, 0), d.counter)
        return cls(entries)

    @classmethod
    def single(cls, actor: Actor, counter: int) -> "VersionVector":
        """Vector with a single non-zero entry."""
        return cls({actor: counter})

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def get(self, actor: Actor) -> int:
        """Counter recorded for ``actor`` (0 when absent)."""
        return self._entries.get(actor, 0)

    def __getitem__(self, actor: Actor) -> int:
        return self.get(actor)

    def actors(self) -> FrozenSet[Actor]:
        """Actors with a non-zero entry."""
        return frozenset(self._entries)

    def entries(self) -> Dict[Actor, int]:
        """A copy of the non-zero entries."""
        return dict(self._entries)

    def items(self) -> Iterator[Tuple[Actor, int]]:
        """Iterate over ``(actor, counter)`` pairs in actor order."""
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def total_events(self) -> int:
        """Number of events in the denoted causal history."""
        return sum(self._entries.values())

    def contains_dot(self, dot: Dot) -> bool:
        """True iff ``dot`` is in the causal history denoted by this vector.

        This is the O(1) containment test that makes dotted version vector
        comparison constant-time: ``dot ∈ V  iff  dot.counter <= V[dot.actor]``.
        """
        return dot.counter <= self.get(dot.actor)

    def dots(self) -> Iterator[Dot]:
        """Enumerate every dot in the denoted history (potentially large)."""
        for actor, counter in sorted(self._entries.items()):
            for n in range(1, counter + 1):
                yield Dot(actor, n)

    def max_dot(self, actor: Actor) -> Optional[Dot]:
        """The latest dot of ``actor`` in this vector, or None if absent."""
        counter = self.get(actor)
        if counter == 0:
            return None
        return Dot(actor, counter)

    # ------------------------------------------------------------------ #
    # Events and merging
    # ------------------------------------------------------------------ #
    def increment(self, actor: Actor) -> "VersionVector":
        """Return a new vector with ``actor``'s counter advanced by one."""
        entries = dict(self._entries)
        entries[actor] = entries.get(actor, 0) + 1
        return VersionVector(entries)

    def event(self, actor: Actor) -> Tuple["VersionVector", Dot]:
        """Record a new event at ``actor``; return the new vector and its dot."""
        new = self.increment(actor)
        return new, Dot(actor, new.get(actor))

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum (least upper bound in the vector lattice)."""
        entries = dict(self._entries)
        for actor, counter in other._entries.items():
            if counter > entries.get(actor, 0):
                entries[actor] = counter
        return VersionVector(entries)

    def with_entry(self, actor: Actor, counter: int) -> "VersionVector":
        """Return a copy with ``actor`` set to exactly ``counter``."""
        entries = dict(self._entries)
        if counter <= 0:
            entries.pop(actor, None)
        else:
            entries[actor] = counter
        return VersionVector(entries)

    def without(self, actors: Iterable[Actor]) -> "VersionVector":
        """Return a copy with the given actors' entries removed (used by pruning)."""
        drop = set(actors)
        return VersionVector({a: c for a, c in self._entries.items() if a not in drop})

    def restricted_to(self, actors: Iterable[Actor]) -> "VersionVector":
        """Return a copy keeping only the given actors' entries."""
        keep = set(actors)
        return VersionVector({a: c for a, c in self._entries.items() if a in keep})

    # ------------------------------------------------------------------ #
    # Comparison
    # ------------------------------------------------------------------ #
    def compare(self, other: "VersionVector") -> Ordering:
        """Component-wise causal comparison (O(n) in the number of entries)."""
        at_most = True   # self <= other
        at_least = True  # self >= other
        for actor in self._entries.keys() | other._entries.keys():
            mine = self.get(actor)
            theirs = other.get(actor)
            if mine > theirs:
                at_most = False
            elif mine < theirs:
                at_least = False
            if not at_most and not at_least:
                return Ordering.CONCURRENT
        if at_most and at_least:
            return Ordering.EQUAL
        return Ordering.BEFORE if at_most else Ordering.AFTER

    def descends(self, other: "VersionVector") -> bool:
        """True iff this vector's history includes ``other``'s (>=)."""
        return all(self.get(actor) >= counter for actor, counter in other._entries.items())

    def dominates(self, other: "VersionVector") -> bool:
        """True iff this vector strictly includes ``other``'s history (>)."""
        return self.descends(other) and self._entries != other._entries

    def concurrent_with(self, other: "VersionVector") -> bool:
        """True iff neither vector descends the other."""
        return self.compare(other) is Ordering.CONCURRENT

    # ------------------------------------------------------------------ #
    # Dunder / formatting
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {c}" for a, c in sorted(self._entries.items()))
        return f"VersionVector({{{inner}}})"

    def __str__(self) -> str:
        inner = ", ".join(f"{a}:{c}" for a, c in sorted(self._entries.items()))
        return "[" + inner + "]"


class VersionVectorBuilder:
    """Mutable accumulator for building a :class:`VersionVector` incrementally.

    The immutable vector is convenient for reasoning but allocates on every
    update; hot loops in the simulator (anti-entropy over many keys, workload
    replay) use the builder and call :meth:`freeze` once at the end.
    """

    __slots__ = ("_entries",)

    def __init__(self, initial: Optional[VersionVector] = None) -> None:
        self._entries: Dict[Actor, int] = dict(initial.entries()) if initial else {}

    def observe_dot(self, dot: Dot) -> None:
        """Advance the builder so the dot's actor counter is at least ``dot.counter``."""
        if dot.counter > self._entries.get(dot.actor, 0):
            self._entries[dot.actor] = dot.counter

    def increment(self, actor: Actor) -> Dot:
        """Record a fresh event for ``actor`` and return its dot."""
        counter = self._entries.get(actor, 0) + 1
        self._entries[actor] = counter
        return Dot(actor, counter)

    def merge(self, other: VersionVector) -> None:
        """Pointwise-max merge of another vector into the builder."""
        for actor, counter in other.entries().items():
            if counter > self._entries.get(actor, 0):
                self._entries[actor] = counter

    def get(self, actor: Actor) -> int:
        """Current counter for ``actor``."""
        return self._entries.get(actor, 0)

    def freeze(self) -> VersionVector:
        """Produce the immutable vector described by the builder."""
        return VersionVector(self._entries)
