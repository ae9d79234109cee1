"""Version vectors with exceptions (VVE), as used by WinFS.

The paper's related-work section discusses WinFS's *concise version vectors*
(Malkhi & Terry): the causal past of the whole replica is a version vector,
but individual items carry version identifiers, and the vector may contain
*exceptions* — events below an actor's maximum that are **not** part of the
history.  VVEs can therefore represent arbitrary (non-contiguous) sets of
events, unlike plain version vectors which only encode prefixes.

We implement VVEs both as a general-purpose exact dot-set (used by the
anti-entropy log exchange in the store) and as a baseline causality mechanism
in the related-work check (E6): correct like DVV, but with a potentially
larger footprint because exceptions accumulate under interleaved updates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set

from ..core.causal_history import CausalHistory
from ..core.comparison import Ordering
from ..core.dot import Actor, Dot
from ..core.exceptions import InvalidClockError
from ..core.version_vector import VersionVector


class VersionVectorWithExceptions:
    """An exact, immutable set of dots: per-actor maximum plus exception set.

    For each actor the structure stores the highest counter seen (``base``)
    and the set of counters *below* the base that are missing (``exceptions``).
    The denoted history is ``{(a, n) | 1 <= n <= base[a]} \\ exceptions``.
    """

    __slots__ = ("_base", "_exceptions", "_encoded")

    def __init__(self,
                 base: Optional[Mapping[Actor, int]] = None,
                 exceptions: Iterable[Dot] = ()) -> None:
        base_vv = VersionVector(base or {})
        exception_set = frozenset(exceptions)
        for exc in exception_set:
            if not isinstance(exc, Dot):
                raise InvalidClockError(f"exceptions must be Dots, got {exc!r}")
            if exc.counter > base_vv.get(exc.actor):
                raise InvalidClockError(
                    f"exception {exc} lies above the base counter {base_vv.get(exc.actor)}"
                )
        object.__setattr__(self, "_base", base_vv)
        object.__setattr__(self, "_exceptions", exception_set)
        object.__setattr__(self, "_encoded", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"VersionVectorWithExceptions is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"VersionVectorWithExceptions is immutable; cannot delete {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "VersionVectorWithExceptions":
        """The empty event set."""
        return cls()

    @classmethod
    def from_dots(cls, dots: Iterable[Dot]) -> "VersionVectorWithExceptions":
        """Exact representation of an arbitrary dot set."""
        dots = set(dots)
        base: Dict[Actor, int] = {}
        for d in dots:
            base[d.actor] = max(base.get(d.actor, 0), d.counter)
        exceptions: Set[Dot] = set()
        for actor, top in base.items():
            for counter in range(1, top + 1):
                candidate = Dot(actor, counter)
                if candidate not in dots:
                    exceptions.add(candidate)
        return cls(base, exceptions)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def base(self) -> VersionVector:
        """The per-actor maxima."""
        return self._base

    @property
    def exceptions(self) -> FrozenSet[Dot]:
        """The missing dots below the base."""
        return self._exceptions

    def contains_dot(self, dot: Dot) -> bool:
        """Exact membership test (O(1) expected)."""
        return dot.counter <= self._base.get(dot.actor) and dot not in self._exceptions

    def dots(self) -> Iterator[Dot]:
        """Enumerate the denoted event set."""
        for actor, top in self._base.items():
            for counter in range(1, top + 1):
                candidate = Dot(actor, counter)
                if candidate not in self._exceptions:
                    yield candidate

    def entry_count(self) -> int:
        """Logical metadata footprint: base entries plus exception records."""
        return len(self._base) + len(self._exceptions)

    def __len__(self) -> int:
        return self._base.total_events() - len(self._exceptions)

    def __contains__(self, dot: Dot) -> bool:
        return self.contains_dot(dot)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add_dot(self, dot: Dot) -> "VersionVectorWithExceptions":
        """Return a copy whose event set additionally contains ``dot``.

        If the dot is above the actor's current base, the counters in between
        become exceptions (they have not been seen); if it fills an existing
        exception, the exception disappears.
        """
        if self.contains_dot(dot):
            return self
        base = self._base.entries()
        exceptions = set(self._exceptions)
        current = base.get(dot.actor, 0)
        if dot.counter > current:
            for missing in range(current + 1, dot.counter):
                exceptions.add(Dot(dot.actor, missing))
            base[dot.actor] = dot.counter
        else:
            exceptions.discard(dot)
        return VersionVectorWithExceptions(base, exceptions)

    def merge(self, other: "VersionVectorWithExceptions") -> "VersionVectorWithExceptions":
        """Set union of the two event sets."""
        base = self._base.merge(other._base)
        exceptions: Set[Dot] = set()
        for candidate in set(self._exceptions) | set(other._exceptions):
            if not self.contains_dot(candidate) and not other.contains_dot(candidate):
                exceptions.add(candidate)
        return VersionVectorWithExceptions(base.entries(), exceptions)

    def next_dot(self, actor: Actor) -> Dot:
        """The dot a new local event of ``actor`` should use (one past the base)."""
        return Dot(actor, self._base.get(actor) + 1)

    # ------------------------------------------------------------------ #
    # Comparison
    # ------------------------------------------------------------------ #
    def descends(self, other: "VersionVectorWithExceptions") -> bool:
        """True iff this event set is a superset of ``other``'s."""
        if not self._base.descends(other._base):
            return False
        return all(self.contains_dot(dot) for dot in other.dots())

    def compare(self, other: "VersionVectorWithExceptions") -> Ordering:
        """Causal comparison by (exact) set inclusion."""
        forwards = self.descends(other)
        backwards = other.descends(self)
        if forwards and backwards:
            return Ordering.EQUAL
        if forwards:
            return Ordering.AFTER
        if backwards:
            return Ordering.BEFORE
        return Ordering.CONCURRENT

    def to_causal_history(self) -> CausalHistory:
        """Denotation as an explicit causal history."""
        return CausalHistory(None, self.dots())

    # ------------------------------------------------------------------ #
    # Dunder / formatting
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVectorWithExceptions):
            return NotImplemented
        return self._base == other._base and self._exceptions == other._exceptions

    def __hash__(self) -> int:
        return hash((self._base, self._exceptions))

    def __repr__(self) -> str:
        return (
            f"VersionVectorWithExceptions(base={self._base!r}, "
            f"exceptions={sorted(self._exceptions)!r})"
        )

    def __str__(self) -> str:
        exc = ",".join(f"{d.actor}{d.counter}" for d in sorted(self._exceptions))
        return f"{self._base}-{{{exc}}}" if exc else str(self._base)


class DottedVVE:
    """A version identified by a dot with a VVE causal past (WinFS-style item clock).

    The related-work baseline for E6: causally exact like a DVV, but the causal
    past can carry exceptions, so the footprint is ``#actors + #exceptions``
    rather than being bounded by the number of replicas.
    """

    __slots__ = ("_dot", "_past", "_encoded")

    def __init__(self, dot: Dot, past: VersionVectorWithExceptions) -> None:
        object.__setattr__(self, "_dot", dot)
        object.__setattr__(self, "_past", past)
        object.__setattr__(self, "_encoded", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"DottedVVE is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"DottedVVE is immutable; cannot delete {name!r}"
        )

    @property
    def dot(self) -> Dot:
        """The version identifier."""
        return self._dot

    @property
    def causal_past(self) -> VersionVectorWithExceptions:
        """The exact causal past of the version."""
        return self._past

    def contains_dot(self, dot: Dot) -> bool:
        """Membership of a dot in the version's history."""
        return dot == self._dot or self._past.contains_dot(dot)

    def happens_before(self, other: "DottedVVE") -> bool:
        """O(1) happened-before via the explicit dot."""
        return self._dot != other._dot and other._past.contains_dot(self._dot)

    def compare(self, other: "DottedVVE") -> Ordering:
        """Four-way causal comparison."""
        if self._dot == other._dot:
            return Ordering.EQUAL
        if self.happens_before(other):
            return Ordering.BEFORE
        if other.happens_before(self):
            return Ordering.AFTER
        return Ordering.CONCURRENT

    def to_causal_history(self) -> CausalHistory:
        """Denotation as an explicit causal history."""
        return CausalHistory(self._dot, self._past.dots())

    def entry_count(self) -> int:
        """Metadata footprint: past entries plus the dot."""
        return self._past.entry_count() + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DottedVVE):
            return NotImplemented
        return self._dot == other._dot and self._past == other._past

    def __hash__(self) -> int:
        return hash((self._dot, self._past))

    def __repr__(self) -> str:
        return f"DottedVVE(dot={self._dot!r}, past={self._past!r})"


# ---------------------------------------------------------------------- #
# Canonical-bytes registration
# ---------------------------------------------------------------------- #
# The WinFS baselines live outside repro.core, so they opt in to the
# canonical-bytes layer here (codec cannot import this module — it would be a
# cycle).  The byte layouts deliberately match the wire codec's "E" and "X"
# tags so network frames can embed the cached encodings verbatim.
def _encode_vve(clock: VersionVectorWithExceptions) -> bytes:
    out = bytearray(b"E")
    codec._write_vv_body(out, clock.base)
    exceptions = sorted(clock.exceptions)
    codec._write_varint(out, len(exceptions))
    for dot in exceptions:
        codec._write_dot(out, dot)
    return bytes(out)


def _encode_dotted_vve(clock: DottedVVE) -> bytes:
    out = bytearray(b"X")
    codec._write_dot(out, clock.dot)
    out += codec.canonical_bytes(clock.causal_past)
    return bytes(out)


from ..core import codec  # noqa: E402  (bottom import breaks the cycle)

codec.register_encoder(VersionVectorWithExceptions, _encode_vve)
codec.register_encoder(DottedVVE, _encode_dotted_vve)
