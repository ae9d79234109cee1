"""Dotted version vector *sets* (DVVSet) — the compact server-side clock.

The brief announcement describes one DVV per stored version.  The production
integration in Riak (and the companion technical report) goes one step
further: since all sibling versions of a key live together at a replica, their
clocks can be packed into a single structure, the **dotted version vector
set**.  A DVVSet keeps, per server id, a counter (how many events that server
has minted for this key) together with the most recent values that server
minted and that are still causally relevant, plus a list of "anonymous" values
not yet associated with a dot (e.g. a value carried by a fresh client PUT
before the coordinating server assigns its dot).

Concretely a DVVSet is::

    ({(actor, counter, (v_k, ..., v_1)), ...},  (anonymous values...))

where ``counter`` counts every event ``actor`` produced for the key and the
value tuple holds the newest ``len(values)`` of those events, newest first:
the event for value ``values[j]`` has sequence number ``counter - j``.  Events
older than ``counter - len(values)`` are in the causal past and carry no
value.  This is a direct port of Riak's ``dvvset.erl`` with Python naming.

The public operations mirror the server protocol:

* :meth:`DVVSet.new` / :meth:`DVVSet.new_with_context` — wrap a freshly
  written value (optionally with the client's causal context).
* :meth:`DVVSet.update` — mint the coordinating server's dot for the new
  value, discarding the siblings the client had already seen.
* :meth:`DVVSet.sync` — merge the clocks of two replicas (anti-entropy,
  read repair), keeping exactly the concurrent values.
* :meth:`DVVSet.join` — extract the version-vector causal context sent back
  to clients on GET.
* :meth:`DVVSet.values` — list the currently live (concurrent) values.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .comparison import Ordering
from .dot import Actor, Dot
from .exceptions import InvalidClockError
from .version_vector import VersionVector

V = TypeVar("V")

Entry = Tuple[Actor, int, Tuple[V, ...]]


class DVVSet(Generic[V]):
    """A dotted version vector set holding sibling values and their causality."""

    __slots__ = ("_entries", "_anonymous", "_encoded")

    def __init__(self,
                 entries: Iterable[Entry] = (),
                 anonymous: Iterable[V] = ()) -> None:
        normalised: List[Entry] = []
        seen = set()
        for actor, counter, values in entries:
            if not isinstance(actor, str) or not actor:
                raise InvalidClockError(f"DVVSet actor must be a non-empty string, got {actor!r}")
            if not isinstance(counter, int) or counter < 0:
                raise InvalidClockError(f"DVVSet counter must be a non-negative int, got {counter!r}")
            values = tuple(values)
            if len(values) > counter:
                raise InvalidClockError(
                    f"entry for {actor!r} holds {len(values)} values but only {counter} events"
                )
            if actor in seen:
                raise InvalidClockError(f"duplicate DVVSet entry for actor {actor!r}")
            seen.add(actor)
            normalised.append((actor, counter, values))
        normalised.sort(key=lambda e: e[0])
        object.__setattr__(self, "_entries", tuple(normalised))
        object.__setattr__(self, "_anonymous", tuple(anonymous))
        object.__setattr__(self, "_encoded", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"DVVSet is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"DVVSet is immutable; cannot delete {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def new(cls, value: V) -> "DVVSet[V]":
        """Clock for a brand-new value written with no causal context."""
        return cls((), (value,))

    @classmethod
    def new_with_context(cls, context: VersionVector, value: V) -> "DVVSet[V]":
        """Clock for a new value written by a client holding GET context ``context``."""
        entries = tuple((actor, counter, ()) for actor, counter in context.items())
        return cls(entries, (value,))

    @classmethod
    def empty(cls) -> "DVVSet[V]":
        """A clock describing no events and carrying no values."""
        return cls((), ())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def entries(self) -> Tuple[Entry, ...]:
        """The per-actor entries, sorted by actor id."""
        return self._entries

    @property
    def anonymous(self) -> Tuple[V, ...]:
        """Values not yet associated with a dot."""
        return self._anonymous

    def actors(self) -> Tuple[Actor, ...]:
        """Actors (server ids) present in the clock."""
        return tuple(actor for actor, _, _ in self._entries)

    def counter(self, actor: Actor) -> int:
        """Number of events minted by ``actor`` for this key (0 when absent)."""
        for entry_actor, counter, _ in self._entries:
            if entry_actor == actor:
                return counter
        return 0

    def values(self) -> List[V]:
        """All currently live sibling values (anonymous first, then per-actor, newest first)."""
        out: List[V] = list(self._anonymous)
        for _, _, values in self._entries:
            out.extend(values)
        return out

    def size(self) -> int:
        """Number of live sibling values."""
        return len(self._anonymous) + sum(len(values) for _, _, values in self._entries)

    def entry_count(self) -> int:
        """Number of per-actor entries — the metadata footprint driver."""
        return len(self._entries)

    def total_events(self) -> int:
        """Total number of events recorded across all actors."""
        return sum(counter for _, counter, _ in self._entries)

    def dots(self) -> List[Tuple[Dot, Optional[V]]]:
        """Every event in the clock with its value (None for past, value-less events)."""
        out: List[Tuple[Dot, Optional[V]]] = []
        for actor, counter, values in self._entries:
            for offset in range(counter):
                seq = counter - offset
                value = values[offset] if offset < len(values) else None
                out.append((Dot(actor, seq), value))
        return out

    def contains_dot(self, dot: Dot) -> bool:
        """O(#actors) membership of an event in the clock's causal history."""
        return dot.counter <= self.counter(dot.actor)

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def join(self) -> VersionVector:
        """The causal context of the whole sibling set (sent to clients on GET)."""
        return VersionVector({actor: counter for actor, counter, _ in self._entries})

    def event(self, actor: Actor, value: V) -> "DVVSet[V]":
        """Record a new event by ``actor`` carrying ``value`` (internal to PUT)."""
        entries: List[Entry] = []
        found = False
        for entry_actor, counter, values in self._entries:
            if entry_actor == actor:
                entries.append((entry_actor, counter + 1, (value,) + values))
                found = True
            else:
                entries.append((entry_actor, counter, values))
        if not found:
            entries.append((actor, 1, (value,)))
        return DVVSet(entries, self._anonymous)

    def update(self, server_clock: "DVVSet[V]", server_id: Actor) -> "DVVSet[V]":
        """Mint ``server_id``'s dot for this clock's new value, against ``server_clock``.

        ``self`` must be a clock produced by :meth:`new` /
        :meth:`new_with_context` (one anonymous value, entries describing the
        client's context).  ``server_clock`` is the clock currently stored at
        the coordinating replica.  The result contains the new value tagged
        with a fresh dot of ``server_id`` plus every stored sibling that the
        client had *not* yet seen — exactly the paper's semantics for
        concurrent client writes.
        """
        if len(self._anonymous) != 1:
            raise InvalidClockError(
                "update() expects a client clock carrying exactly one anonymous value"
            )
        value = self._anonymous[0]
        context_only = DVVSet(self._entries, ())
        merged = context_only.sync(server_clock)
        return merged.event(server_id, value)

    def sync(self, other: "DVVSet[V]") -> "DVVSet[V]":
        """Merge two replica clocks, keeping exactly the concurrent values.

        For each actor the entry with more events wins; values of the loser
        that the winner has already superseded are dropped, values the winner
        has not yet seen are kept.  Anonymous values are unioned.
        """
        mine: Dict[Actor, Tuple[int, Tuple[V, ...]]] = {
            actor: (counter, values) for actor, counter, values in self._entries
        }
        theirs: Dict[Actor, Tuple[int, Tuple[V, ...]]] = {
            actor: (counter, values) for actor, counter, values in other._entries
        }
        entries: List[Entry] = []
        for actor in sorted(set(mine) | set(theirs)):
            if actor not in theirs:
                counter, values = mine[actor]
                entries.append((actor, counter, values))
            elif actor not in mine:
                counter, values = theirs[actor]
                entries.append((actor, counter, values))
            else:
                entries.append(self._merge_entry(actor, mine[actor], theirs[actor]))
        anonymous = _unique(self._anonymous + other._anonymous)
        return DVVSet(entries, anonymous)

    @staticmethod
    def _merge_entry(actor: Actor,
                     left: Tuple[int, Tuple[V, ...]],
                     right: Tuple[int, Tuple[V, ...]]) -> Entry:
        """Merge the two replicas' entries for one actor (dvvset.erl ``merge/5``)."""
        left_counter, left_values = left
        right_counter, right_values = right
        if left_counter < right_counter:
            left_counter, left_values, right_counter, right_values = (
                right_counter, right_values, left_counter, left_values
            )
        # ``left`` now has at least as many events.  The oldest event that
        # ``right`` still carries a value for is ``right_counter - len(right_values) + 1``;
        # anything older than that has been superseded on the right, so the
        # left may only keep values at least that recent.
        left_floor = left_counter - len(left_values)
        right_floor = right_counter - len(right_values)
        if left_floor >= right_floor:
            return (actor, left_counter, left_values)
        keep = left_counter - right_floor
        return (actor, left_counter, left_values[:keep])

    # ------------------------------------------------------------------ #
    # Comparison
    # ------------------------------------------------------------------ #
    def descends(self, other: "DVVSet[V]") -> bool:
        """True iff this clock's history includes every event of ``other``."""
        return all(self.counter(actor) >= counter for actor, counter, _ in other._entries)

    def compare(self, other: "DVVSet[V]") -> Ordering:
        """Causal comparison of the two clocks' event histories."""
        forwards = self.descends(other)
        backwards = other.descends(self)
        if forwards and backwards:
            return Ordering.EQUAL
        if forwards:
            return Ordering.AFTER
        if backwards:
            return Ordering.BEFORE
        return Ordering.CONCURRENT

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DVVSet):
            return NotImplemented
        return self._entries == other._entries and self._anonymous == other._anonymous

    def __hash__(self) -> int:
        return hash((self._entries, self._anonymous))

    def __repr__(self) -> str:
        return f"DVVSet(entries={self._entries!r}, anonymous={self._anonymous!r})"

    def __str__(self) -> str:
        entries = ", ".join(
            f"{actor}:{counter}{list(values)!r}" for actor, counter, values in self._entries
        )
        return "{" + entries + (f" | {list(self._anonymous)!r}" if self._anonymous else "") + "}"


def _unique(values: Sequence[V]) -> Tuple[V, ...]:
    """Deduplicate while preserving first-seen order (values may be unhashable)."""
    out: List[V] = []
    for value in values:
        if value not in out:
            out.append(value)
    return tuple(out)
