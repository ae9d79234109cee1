"""The pluggable causality-mechanism interface used by the simulated store.

The whole point of the paper is a comparison between *mechanisms* for tagging
and relating concurrently written versions: per-server version vectors
(Figure 1b), per-client version vectors (Riak's pre-DVV approach, optionally
pruned), dotted version vectors (Figure 1c), dotted version vector sets, and
the causal-history ground truth (Figure 1a).  To replay identical workloads
under each of them, the key-value store delegates every causality decision to
a :class:`CausalityMechanism`:

* what opaque *causal context* a GET returns to the client,
* how a PUT (carrying such a context) is tagged and which stored siblings it
  supersedes,
* how two replicas' states are merged during anti-entropy or read repair,
* how much metadata the mechanism keeps (entries and encoded bytes) and how
  large a context is on the wire (encoded bytes).

Each mechanism owns its per-key replica state (``state``) and its context
representation; the store treats both as opaque.  Every mechanism but the
DVV-set stores a key as one ``(clock, sibling)`` entry per sibling and
derives from :class:`SiblingListMechanism`, which keeps that state's
lifecycle and metadata accounting in one place; the DVV-set describes all of
a key's siblings with one clock and implements the interface directly.

Alongside the mechanism-specific clock, every stored version is a
:class:`Sibling`: the value and the one name of the write, its globally
unique *origin dot*.  The dot's actor is the writing client, the same id
client-id version vectors count.  That dot is all the ground truth a stored version carries: the
write's causal history lives in the oracle's side channel
(:class:`~repro.kvstore.write_log.WriteLog`, which rebuilds it from the
origin dots each writer had read), so the analysis layer can detect when a
mechanism loses updates, falsely orders concurrent writes, or manufactures
false concurrency without any of it riding storage or the wire.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Generic, List, Tuple, TypeVar

from ..core import serialization
from ..core.dot import Dot

State = TypeVar("State")
Context = TypeVar("Context")
Clock = TypeVar("Clock")


@dataclass(frozen=True)
class Sibling:
    """A stored version, independent of the causality mechanism.

    Attributes
    ----------
    value:
        The application value written by the client.
    origin_dot:
        The write's one name: ``(client id, client sequence number)``,
        minted by the issuing client session, *not* by the mechanism under
        test.  The analysis layer uses it as the ground-truth event id (the
        write's causal history is ``write_log.history_of(origin_dot)``,
        never stored here), and its actor is the writer.
    """

    value: Any
    origin_dot: Dot

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return f"Sibling({self.value!r}@{self.origin_dot})"


@dataclass
class ReadResult(Generic[Context]):
    """Outcome of reading a key under some mechanism."""

    siblings: List[Sibling]
    context: Context


class CausalityMechanism(abc.ABC, Generic[State, Context]):
    """Strategy interface for version tagging and conflict detection.

    Implementations must be deterministic: replaying the same sequence of
    calls must produce identical states, because the benchmarks replay one
    recorded trace under several mechanisms and compare the outcomes.
    """

    #: Short machine-readable name used by the registry and the reports.
    name: str = "abstract"

    #: Whether the mechanism is expected to track causality exactly
    #: (used by tests to decide whether divergence from the oracle is a bug).
    exact: bool = True

    # ------------------------------------------------------------------ #
    # Key state lifecycle
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def empty_state(self) -> State:
        """The replica-local state of a key that has never been written."""

    @abc.abstractmethod
    def is_empty(self, state: State) -> bool:
        """True when the state holds no live versions."""

    @abc.abstractmethod
    def siblings(self, state: State) -> List[Sibling]:
        """The live (concurrent) versions currently stored in ``state``."""

    # ------------------------------------------------------------------ #
    # Client-visible protocol
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def empty_context(self) -> Context:
        """The context a client uses before its first read (blind write)."""

    @abc.abstractmethod
    def read(self, state: State) -> ReadResult[Context]:
        """Return the live versions and the causal context for a GET."""

    @abc.abstractmethod
    def write(self,
              state: State,
              context: Context,
              sibling: Sibling,
              server_id: str) -> State:
        """Apply a client PUT carrying ``context`` at coordinating ``server_id``.

        The writing client is ``sibling.origin_dot.actor``.

        The returned state must contain ``sibling`` (the new version) plus
        whatever previously stored versions the mechanism deems concurrent
        with it.  Versions the mechanism considers superseded are dropped —
        rightly or wrongly; the analysis layer judges that against the ground
        truth.
        """

    def write_delta(self, written: State) -> State:
        """The part of ``written``, a :meth:`write` result, that the write added.

        Joining it into the state the write was applied to reaches what
        joining ``written`` does, which is ``written`` up to the merge's order
        unless pruning discarded an entry.  It is what the coordinator ships
        to the other replicas (the delta-mutator of delta-state CRDTs).  The
        default is ``written`` itself; a mechanism whose write appends one
        new entry returns that entry.  It is read off the ``write`` result,
        never found by searching a state for the sibling: a retried PUT
        leaves two entries for one origin dot.
        """
        return written

    @abc.abstractmethod
    def merge(self, state_a: State, state_b: State) -> State:
        """Merge the states of two replicas (anti-entropy / read repair)."""

    def absorb(self, stored: State, incoming: State) -> State:
        """``merge(stored, incoming)``, where ``stored`` is a merge result.

        ``stored`` must be a value this mechanism's ``merge`` or ``absorb``
        returned.  The result equals ``merge(stored, incoming)`` in value,
        order and element identity, for any ``incoming``; a mechanism may
        override this to spend time only on what ``incoming`` adds, and then
        returns ``stored`` itself when nothing changed.
        """
        return self.merge(stored, incoming)

    # ------------------------------------------------------------------ #
    # Metadata accounting
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def metadata_entries(self, state: State) -> int:
        """Logical number of causality-metadata entries stored for the key."""

    @abc.abstractmethod
    def metadata_bytes(self, state: State) -> int:
        """Encoded size in bytes of the causality metadata stored for the key."""

    def context_bytes(self, context: Context) -> int:
        """Encoded size in bytes of a client context (what travels on GET/PUT)."""
        return serialization.encoded_size(context)

    # ------------------------------------------------------------------ #
    # Conveniences shared by implementations
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human description used in benchmark reports."""
        return f"{self.name} ({'exact' if self.exact else 'approximate'})"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} name={self.name!r}>"


#: The state of a :class:`SiblingListMechanism` key: one entry per sibling.
SiblingList = Tuple[Tuple[Clock, Sibling], ...]


class SiblingListMechanism(CausalityMechanism[SiblingList[Clock], Context]):
    """A mechanism that stores a key as one ``(clock, sibling)`` entry per sibling.

    The state is a tuple of such entries; the empty tuple is the absent key.
    The metadata stored for the key is the sum over its clocks, counted by
    :func:`~repro.core.serialization.entry_count` and sized by
    :func:`~repro.core.serialization.encoded_size`.  Subclasses define how
    clocks are minted, compared and merged (``read``, ``write``, ``merge``).
    """

    def empty_state(self) -> SiblingList[Clock]:
        return ()

    def is_empty(self, state: SiblingList[Clock]) -> bool:
        return not state

    def siblings(self, state: SiblingList[Clock]) -> List[Sibling]:
        return [sibling for _, sibling in state]

    def metadata_entries(self, state: SiblingList[Clock]) -> int:
        return sum(serialization.entry_count(clock) for clock, _ in state)

    def metadata_bytes(self, state: SiblingList[Clock]) -> int:
        return sum(serialization.encoded_size(clock) for clock, _ in state)
