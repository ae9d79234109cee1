"""Causal contexts: the opaque token clients carry between GET and PUT.

In a Dynamo/Riak-style store a read returns, besides the value(s), a *causal
context*; the client must send that context back with its next write so the
store knows which versions the write supersedes.  The representation of the
context is owned by the causality mechanism under test (a version vector for
DVV/DVVSet/client-VV/server-VV, a causal history for the oracle, a VVE for the
WinFS baseline); :class:`CausalContext` wraps it together with the key it
belongs to.  That — key, mechanism context, mechanism name — is everything
the store and the wire ever see.

The correctness oracle additionally needs to know which writes the reading
client actually saw.  The session notes their origin dots on the context it
keeps (``read_dots``, at most one per sibling returned); whoever issues the
next write reports them to the :class:`~repro.kvstore.write_log.WriteLog` as
that write's causal parents.  The field is client-local: it is not encoded on
the wire and takes no part in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

from ..core.dot import Dot


@dataclass(frozen=True)
class CausalContext:
    """Context returned by a GET and supplied with the following PUT.

    Attributes
    ----------
    key:
        The key the context belongs to.  Contexts are never valid across keys;
        the store rejects mismatched ones.
    mechanism_context:
        The mechanism-specific causal summary (opaque to clients).
    mechanism_name:
        Name of the mechanism that produced the context, so accidentally
        mixing runs fails loudly instead of corrupting results.
    read_dots:
        Origin dots of the siblings the read returned.  Client-local oracle
        bookkeeping: never sent, never compared.
    """

    key: str
    mechanism_context: Any
    mechanism_name: str
    read_dots: Tuple[Dot, ...] = field(default=(), compare=False)

    @classmethod
    def initial(cls, key: str, mechanism_name: str, empty_context: Any) -> "CausalContext":
        """The context of a client that has never read ``key`` (blind write)."""
        return cls(key=key, mechanism_context=empty_context,
                   mechanism_name=mechanism_name)

    def with_mechanism_context(self, mechanism_context: Any) -> "CausalContext":
        """Copy with a replaced mechanism context (used by read repair paths)."""
        return CausalContext(
            key=self.key,
            mechanism_context=mechanism_context,
            mechanism_name=self.mechanism_name,
            read_dots=self.read_dots,
        )
