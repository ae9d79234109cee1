"""The transport contract protocol state machines are hosted over.

The state machines in :mod:`repro.kvstore.protocol` never talk to a network
directly — they emit effects, and an
:class:`~repro.kvstore.protocol.effects.EffectRunner` executes those against
*some* transport.  This module pins down what "some transport" must provide,
so a third backend only has to implement these four methods:

``send(message)``
    Put a :class:`~repro.network.message.Message` on the wire, best-effort.
    Delivery semantics are the backend's: the simulator applies latency,
    loss, duplication and partitions; the asyncio backend writes a frame to
    the receiver's socket.  Unreachable receivers are a silent drop — the
    protocol is built to tolerate exactly that.

``schedule(delay_ms, callback) -> handle``
    ``callback()`` runs once, no earlier than ``delay_ms`` from now, unless
    the handle is cancelled first.

``cancel(handle)``
    Disarm a scheduled callback; idempotent, and tolerates ``None``.

``now_ms() -> float``
    The backend's clock, in milliseconds.  Simulated time or wall clock —
    the machines only ever subtract two readings.

A backend also carries a :class:`~repro.network.transport.TransportStats` as
``stats``.  It counts what it sends and delivers; the runner counts the
failure-detection deadlines (``deadlines_set/fired/cancelled``) there, since
only the runner knows which timers are deadlines.

Implementations: :class:`repro.network.transport.Transport` (deterministic
simulator) and :class:`repro.network.asyncio_transport.AsyncioEndpoint`
(Unix-domain sockets).
"""

from __future__ import annotations

import abc
from typing import Any, Callable

from .message import Message


class ProtocolTransport(abc.ABC):
    """What an :class:`EffectRunner` needs from a backend."""

    @abc.abstractmethod
    def send(self, message: Message) -> None:
        """Best-effort delivery of ``message`` toward ``message.receiver``."""

    @abc.abstractmethod
    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> Any:
        """Run ``callback`` ``delay_ms`` from now; returns a cancellable handle."""

    @abc.abstractmethod
    def cancel(self, handle: Any) -> None:
        """Disarm a scheduled callback (idempotent; tolerates ``None``)."""

    @abc.abstractmethod
    def now_ms(self) -> float:
        """The backend's clock in milliseconds (simulated or wall)."""
