"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch everything coming out of the package with a single
``except ReproError`` clause while still being able to discriminate more
precisely when needed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class ClockError(ReproError):
    """Base class for errors involving logical clocks."""


class InvalidDotError(ClockError):
    """A dot (actor, counter) is malformed (e.g. non-positive counter)."""


class InvalidClockError(ClockError):
    """A clock value is structurally invalid or internally inconsistent."""


class IncomparableError(ClockError):
    """Raised when a total order was requested from clocks that are concurrent."""


class SerializationError(ReproError):
    """A clock or store value could not be encoded or decoded."""


class StoreError(ReproError):
    """Base class for errors raised by the simulated key-value store."""


class KeyNotFoundError(StoreError):
    """A GET was issued for a key that no replica holds."""


class StaleContextError(StoreError):
    """A PUT carried a causal context that the store cannot interpret."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulator."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the simulation horizon."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid parameters."""


class WorkloadError(ReproError):
    """A workload description or trace is invalid."""


class AnalysisError(ReproError):
    """An analysis step received inconsistent or incomplete run data."""
