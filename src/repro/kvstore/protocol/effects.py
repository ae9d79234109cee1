"""Effects: the only way protocol state machines touch the outside world.

The state machines in this package (:mod:`~repro.kvstore.protocol.coordinator`,
:mod:`~repro.kvstore.protocol.replica`, :mod:`~repro.kvstore.protocol.anti_entropy`,
:mod:`~repro.kvstore.protocol.hints`, :mod:`~repro.kvstore.protocol.client`)
never send a message or arm a timer themselves.  Each entry point — a decoded
message, a fired timer, a daemon trigger — returns a list of *effects*, plain
data describing what the surrounding backend should do:

* :class:`Send` — put a :class:`~repro.network.message.Message` on the wire;
* :class:`SetTimer` — arm a named timer ``delay_ms`` from now (the machine
  names its timers; it never sees backend timer handles);
* :class:`ClearTimer` — disarm a named timer if it is still armed.

Because effects are data, the machines can be driven with no transport at all
(scripted tests assert on the returned lists), by the deterministic simulator
(:mod:`repro.kvstore.simulated`), or by the asyncio socket backend
(:mod:`repro.kvstore.asyncio_cluster`) — with zero protocol logic duplicated.

:class:`EffectRunner` is the shared interpreter: it executes effect lists
against anything satisfying the transport contract of
:mod:`repro.network.base`, keeps the timer-id → backend-handle map, feeds
timer firings back into the machine, and is the one place that knows a
timer's kind: it counts failure-detection deadlines (not tasks) in the
transport's ``deadlines_set/fired/cancelled``.  Effect order is significant —
backends must execute a list strictly in order, because the deterministic
simulator's reproducibility (and therefore the equivalence suite) depends on
sends and timer arms hitting the event queue exactly as the pre-extraction
code issued them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from ...network.message import Message

#: Timers are named by the machine that arms them.  Ids are tuples so they
#: stay hashable and self-describing, e.g. ``("replica", 7, "B")`` for the
#: per-replica ack deadline of coordination 7 on replica B.
TimerId = Tuple


@dataclass
class Send:
    """Put ``message`` on the wire (delivery semantics are the backend's)."""

    message: Message


@dataclass
class SetTimer:
    """Arm a named timer ``delay_ms`` from now.

    When it fires, the backend must call the owning machine's ``on_timer``
    with ``timer_id`` and execute the returned effects.  Arming an id that is
    already armed is a protocol bug; machines always clear first.
    """

    timer_id: TimerId
    delay_ms: float
    #: ``"deadline"`` (failure detection: the runner counts it) or ``"task"``.
    kind: str = "deadline"


@dataclass
class ClearTimer:
    """Disarm ``timer_id`` if it is still armed (no-op otherwise)."""

    timer_id: TimerId


Effect = Union[Send, SetTimer, ClearTimer]
EffectList = List[Effect]


class EffectRunner:
    """Executes effect lists against a backend transport.

    Parameters
    ----------
    transport:
        Anything with the :mod:`repro.network.base` transport contract:
        ``send(message)``, ``schedule(delay_ms, callback)``,
        ``cancel(handle)``, ``now_ms()`` and a ``stats`` the runner counts
        deadlines in.
    on_timer:
        Callback into the owning machine: ``on_timer(timer_id, now_ms) ->
        EffectList``.  The runner executes whatever it returns, so timer
        cascades (a deadline firing arms the next fallback's deadline) need no
        backend involvement.
    """

    def __init__(self,
                 transport,
                 on_timer: Callable[[TimerId, float], EffectList]) -> None:
        self._transport = transport
        self._on_timer = on_timer
        self._stats = transport.stats
        #: Armed timer id → (is a deadline, backend handle).
        self._timers: Dict[TimerId, Tuple[bool, object]] = {}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, effects: EffectList) -> None:
        """Execute ``effects`` strictly in order."""
        for effect in effects:
            if isinstance(effect, Send):
                self._transport.send(effect.message)
            elif isinstance(effect, SetTimer):
                self._set_timer(effect)
            elif isinstance(effect, ClearTimer):
                self._clear_timer(effect.timer_id)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown effect {effect!r}")

    def _set_timer(self, effect: SetTimer) -> None:
        timer_id = effect.timer_id
        deadline = effect.kind == "deadline"

        def fire() -> None:
            # The timer is no longer armed once it fires; forget it before
            # re-entering the machine so a ClearTimer for it is a no-op.
            self._timers.pop(timer_id, None)
            if deadline:
                self._stats.deadlines_fired += 1
            self.run(self._on_timer(timer_id, self._transport.now_ms()))

        if deadline:
            self._stats.deadlines_set += 1
        self._timers[timer_id] = (
            deadline, self._transport.schedule(effect.delay_ms, fire))

    def _clear_timer(self, timer_id: TimerId) -> None:
        entry = self._timers.pop(timer_id, None)
        if entry is None:
            return
        deadline, handle = entry
        if deadline:
            self._stats.deadlines_cancelled += 1
        self._transport.cancel(handle)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def cancel_all(self) -> None:
        """Disarm every armed timer (backend shutdown/crash cleanup)."""
        for timer_id in list(self._timers):
            self._clear_timer(timer_id)
