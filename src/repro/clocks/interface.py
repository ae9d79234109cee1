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
* how much metadata the mechanism keeps (entries and encoded bytes).

Each mechanism owns its per-key replica state (``state``) and its context
representation; the store treats both as opaque.  Alongside the
mechanism-specific clock, every stored version is a :class:`Sibling` record
naming the write by a globally unique *origin dot*.  That dot is all the
ground truth a stored version carries: the write's causal history lives in the
oracle's side channel (:class:`~repro.kvstore.write_log.WriteLog`, which
rebuilds it from the origin dots each writer had read), so the analysis layer
can detect when a mechanism loses updates, falsely orders concurrent writes,
or manufactures false concurrency without any of it riding storage or the
wire.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from typing import Any, Generic, List, Optional, TypeVar

from ..core.dot import Dot

State = TypeVar("State")
Context = TypeVar("Context")


_sibling_ids = itertools.count(1)


@dataclass(frozen=True)
class Sibling:
    """A stored version, independent of the causality mechanism.

    Attributes
    ----------
    value:
        The application value written by the client.
    origin_dot:
        A globally unique identifier of the write event (minted by the store's
        oracle, *not* by the mechanism under test).  Used by the analysis
        layer as the ground-truth event id; the write's causal history is
        ``write_log.history_of(origin_dot)``, never stored here.
    writer:
        The client that issued the write (informational; used by reports).
    uid:
        A process-local sequence number so two writes of the same value are
        distinguishable in reports.
    """

    value: Any
    origin_dot: Dot
    writer: Optional[str] = None
    uid: int = field(default_factory=lambda: next(_sibling_ids))

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
              server_id: str,
              client_id: str) -> State:
        """Apply a client PUT carrying ``context`` at coordinating ``server_id``.

        The returned state must contain ``sibling`` (the new version) plus
        whatever previously stored versions the mechanism deems concurrent
        with it.  Versions the mechanism considers superseded are dropped —
        rightly or wrongly; the analysis layer judges that against the ground
        truth.
        """

    @abc.abstractmethod
    def merge(self, state_a: State, state_b: State) -> State:
        """Merge the states of two replicas (anti-entropy / read repair)."""

    # ------------------------------------------------------------------ #
    # Metadata accounting
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def metadata_entries(self, state: State) -> int:
        """Logical number of causality-metadata entries stored for the key."""

    @abc.abstractmethod
    def metadata_bytes(self, state: State) -> int:
        """Encoded size in bytes of the causality metadata stored for the key."""

    @abc.abstractmethod
    def context_entries(self, context: Context) -> int:
        """Logical number of entries in a client context (what travels on GET/PUT)."""

    @abc.abstractmethod
    def context_bytes(self, context: Context) -> int:
        """Encoded size in bytes of a client context."""

    # ------------------------------------------------------------------ #
    # Conveniences shared by implementations
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human description used in benchmark reports."""
        return f"{self.name} ({'exact' if self.exact else 'approximate'})"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} name={self.name!r}>"

