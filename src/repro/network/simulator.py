"""A deterministic discrete-event simulator.

The paper's evaluation ran against a real Riak cluster; we replace the cluster
with a simulated one, and this module is the heart of that substitution: a
single-threaded, deterministic event loop with virtual time.  Determinism
matters because the benchmarks replay the *same* workload under several
causality mechanisms and compare outcomes — any nondeterminism in the
substrate would contaminate the comparison.  All randomness is drawn from one
seeded :class:`random.Random` owned by the simulation.

Components (transports, storage nodes, clients, anti-entropy daemons) interact
with the simulation only through :meth:`Simulation.schedule`,
:meth:`Simulation.schedule_at` and :meth:`Simulation.cancel`; the simulation
never calls back into wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.exceptions import SchedulingError, SimulationError

EventCallback = Callable[[], None]


@dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry: ordered by (time, sequence) for determinism."""

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class EventHandle:
    """Handle returned by :meth:`Simulation.schedule`, usable to cancel the event."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._event.cancelled = True


class Simulation:
    """A single-threaded discrete-event simulation with virtual time.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned random number generator.  Every
        stochastic component (latency models, workload generators wired to the
        simulation) must draw from :attr:`rng` so that a run is reproducible
        from its seed alone.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self.rng = random.Random(seed)
        self.seed = seed
        #: Free-form counters components may bump (message counts, retries, ...).
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Time and scheduling
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current virtual time (arbitrary units; the store interprets ms)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones not yet popped)."""
        return len(self._queue)

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay} time units in the past")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to run at absolute virtual time ``when``."""
        if when < self._now:
            raise SchedulingError(f"cannot schedule at {when}, current time is {self._now}")
        event = _ScheduledEvent(when, next(self._sequence), callback)
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        handle.cancel()

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named statistics counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        ``until`` is an absolute virtual time; events scheduled exactly at
        ``until`` still run.  ``max_events`` guards against runaway event
        storms in misconfigured experiments.
        """
        executed = 0
        while self._queue:
            next_event = self._queue[0]
            if next_event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and next_event.time > until:
                self._now = until
                return
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded max_events={max_events} (possible event storm)"
                )
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (bounded by ``max_events``)."""
        self.run(until=None, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Simulation(now={self._now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )


class PeriodicTask:
    """A recurring simulation task (anti-entropy rounds, workload ticks, ...).

    The callback runs every ``interval`` time units starting ``offset`` from
    creation, until :meth:`stop` is called or the simulation stops running
    events.  Each instance reschedules itself, so cancelling is race-free
    within the single-threaded simulation.
    """

    def __init__(self,
                 simulation: Simulation,
                 interval: float,
                 callback: EventCallback,
                 offset: float = 0.0) -> None:
        if interval <= 0:
            raise SchedulingError(f"periodic interval must be positive, got {interval}")
        self._simulation = simulation
        self._interval = interval
        self._callback = callback
        self._stopped = False
        self._handle = simulation.schedule(offset if offset > 0 else interval, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._simulation.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Stop the recurrence (the currently scheduled firing is cancelled)."""
        self._stopped = True
        self._handle.cancel()
