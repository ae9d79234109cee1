"""The transport contract protocol state machines are hosted over.

The state machines in :mod:`repro.kvstore.protocol` never talk to a network
directly — they emit effects, and an
:class:`~repro.kvstore.protocol.effects.EffectRunner` executes those against
*some* transport.  This module pins down what "some transport" must provide,
so a third backend only has to implement these six methods:

``send(message)``
    Put a :class:`~repro.network.message.Message` on the wire, best-effort.
    Delivery semantics are the backend's: the simulator applies latency,
    loss, duplication and partitions; the asyncio backend writes a frame to
    the receiver's socket.  Unreachable receivers are a silent drop — the
    protocol is built to tolerate exactly that.

``schedule_deadline(delay_ms, callback) -> handle``
    Arm a failure-detection deadline: ``callback()`` runs once, no earlier
    than ``delay_ms`` from now, unless the handle is cancelled first.  Both
    backends count these (``deadlines_set/fired/cancelled``).

``cancel_deadline(handle)``
    Disarm a deadline; must tolerate ``None`` and already-fired handles.

``schedule_task(delay_ms, callback) -> handle`` / ``cancel_task(handle)``
    Same, for ordinary scheduled work (coalescing flushes) that is *not* a
    failure signal and must not pollute deadline statistics.

``now_ms() -> float``
    The backend's clock, in milliseconds.  Simulated time or wall clock —
    the machines only ever subtract two readings.

Implementations: :class:`repro.network.transport.Transport` (deterministic
simulator) and :class:`repro.network.asyncio_transport.AsyncioEndpoint`
(real sockets).  The contract is duck-typed — the simulator's ``Transport``
predates it — but new backends should subclass for the documentation value.
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
    def schedule_deadline(self, delay_ms: float,
                          callback: Callable[[], None]) -> Any:
        """Arm a failure-detection deadline; returns a cancellable handle."""

    @abc.abstractmethod
    def cancel_deadline(self, handle: Any) -> None:
        """Disarm a deadline (idempotent; tolerates ``None``)."""

    @abc.abstractmethod
    def schedule_task(self, delay_ms: float,
                      callback: Callable[[], None]) -> Any:
        """Schedule ordinary work; returns a cancellable handle."""

    @abc.abstractmethod
    def cancel_task(self, handle: Any) -> None:
        """Disarm a scheduled task (idempotent; tolerates ``None``)."""

    @abc.abstractmethod
    def now_ms(self) -> float:
        """The backend's clock in milliseconds (simulated or wall)."""
