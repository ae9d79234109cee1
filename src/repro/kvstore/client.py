"""Client sessions: the application-side view of the store.

A :class:`ClientSession` models one client of the storage system (a browser
session, an application server worker, ...).  It is responsible for the two
pieces of client-side bookkeeping the protocol needs:

* remembering the **causal context** returned by its last read of each key so
  the next write can supersede what was read (the store never trusts clients
  to do more than echo the context back);
* minting the **one name** of each write it issues — a unique origin dot
  ``(client_id, seq)``, from which every layer, the mechanisms and the
  oracle alike, learns the writer — and noting, on the context of each
  read, the origin dots that read returned.  Those two facts are all the
  correctness oracle needs: whoever issues the write reports ``(dot, dots
  read)`` to the :class:`~repro.kvstore.write_log.WriteLog`, which rebuilds
  causal histories when a run is judged.  No history is built, merged or sent on the request
  path, and the mechanisms never see any of it.

Sessions also expose convenience ``get``/``put`` wrappers over a store
object, which is what the examples and workload generators use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..clocks.interface import ReadResult, Sibling
from ..core.dot import Dot
from .context import CausalContext


@dataclass
class GetResult:
    """What a client receives from a GET."""

    key: str
    values: List[Any]
    siblings: List[Sibling]
    context: CausalContext

    @property
    def value(self) -> Optional[Any]:
        """The single value, when there is no conflict (None for empty keys)."""
        if len(self.values) == 1:
            return self.values[0]
        if not self.values:
            return None
        raise ValueError(
            f"key {self.key!r} has {len(self.values)} concurrent values; "
            "resolve the conflict or use .values"
        )


@dataclass
class PutResult:
    """What a client receives back from a PUT."""

    key: str
    context: Optional[CausalContext]
    coordinator: str
    sibling: Sibling


class ClientSession:
    """One client of the store, with its per-key causal bookkeeping."""

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        #: Sequence number of the session's last write; the next origin dot
        #: is ``(client_id, write_seq + 1)``.  A new process resuming a
        #: client id must start it above every number that id already used.
        self.write_seq = 0
        self._contexts: Dict[str, CausalContext] = {}
        #: Number of get/put operations issued (reports).
        self.stats = {"gets": 0, "puts": 0}

    # ------------------------------------------------------------------ #
    # Causal bookkeeping
    # ------------------------------------------------------------------ #
    def last_context(self, key: str) -> Optional[CausalContext]:
        """The causal context from the client's most recent read of ``key``."""
        return self._contexts.get(key)

    def absorb(self,
               key: str,
               mechanism_context: Any,
               read_dots: Iterable[Dot],
               mechanism_name: str) -> CausalContext:
        """Record a reply's context for ``key``: the one entry point for both
        GET and PUT replies, and the context of the session's next write.

        ``read_dots`` are the origin dots of the siblings the context covers
        — the same information the mechanism context encodes — so the oracle
        and the mechanism under test are judged on identical inputs.  A GET
        reply's siblings carry them; a PUT reply does not, and its caller
        takes them from the write log
        (:meth:`~repro.kvstore.write_log.WriteLog.take_reply`), where the
        coordinator noted them under the reply's message id.
        """
        context = CausalContext(
            key=key,
            mechanism_context=mechanism_context,
            mechanism_name=mechanism_name,
            read_dots=tuple(read_dots),
        )
        self._contexts[key] = context
        return context

    def absorb_read(self,
                    key: str,
                    read: ReadResult,
                    mechanism_name: str) -> CausalContext:
        """:meth:`absorb` for a replica-local read (siblings in hand)."""
        return self.absorb(
            key, read.context,
            (sibling.origin_dot for sibling in read.siblings), mechanism_name)

    def prepare_write(self, key: str, value: Any) -> Sibling:
        """Mint the ground-truth identity of a new write of ``key``: a fresh dot.

        The write's ground-truth causal parents are the ``read_dots`` of the
        context it is issued with, which the issuer reports to the write log
        (:meth:`~repro.kvstore.write_log.WriteLog.report_parents`).  This
        matches the correctness criterion of the DVV literature: a PUT
        supersedes exactly the versions covered by the context it supplies —
        a blind write (no context) is causally concurrent with everything,
        even if the client *happened* to have read the key before, because the
        store is never told about those reads.
        """
        self.write_seq += 1
        return Sibling(value=value, origin_dot=Dot(self.client_id, self.write_seq))

    def forget(self, key: str) -> None:
        """Drop the session's context for ``key`` (models an expired session).

        The next write becomes a blind write — one of the behaviours that
        creates siblings in production systems.
        """
        self._contexts.pop(key, None)

    # ------------------------------------------------------------------ #
    # Convenience wrappers over a store object (anything with the
    # synchronous store's ``get`` / ``put``)
    # ------------------------------------------------------------------ #
    def get(self, store: Any, key: str, server_id: Optional[str] = None) -> GetResult:
        """Read ``key`` through ``store``, updating the session's context."""
        self.stats["gets"] += 1
        return store.get(key, self, server_id=server_id)

    def put(self,
            store: Any,
            key: str,
            value: Any,
            server_id: Optional[str] = None,
            use_context: bool = True) -> PutResult:
        """Write ``key`` through ``store``.

        ``use_context=False`` issues a deliberate blind write (ignoring any
        context the session holds), used by workloads that model careless
        clients.
        """
        self.stats["puts"] += 1
        context = self._contexts.get(key) if use_context else None
        return store.put(key, value, self, context=context, server_id=server_id)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ClientSession(id={self.client_id!r}, writes={self.write_seq})"

