"""Latency models for the simulated network.

Latency is where the paper's "better latency when serving requests" claim is
reproduced without the original Riak testbed: message delay is modelled as a
propagation component (drawn from a distribution) plus a transmission
component proportional to the message size.  Since the only thing that varies
between mechanisms on an identical workload is the size of the causality
metadata they attach to requests and replicated objects, any latency
difference measured by experiment E4 is attributable to metadata size — which
is exactly the effect the paper reports.

All models draw randomness from the :class:`random.Random` instance supplied
per call, so the same seed reproduces the same delays.
"""

from __future__ import annotations

import abc
import random
from typing import Optional

from ..core.exceptions import ConfigurationError


class LatencyModel(abc.ABC):
    """Strategy producing the one-way delay of a message."""

    @abc.abstractmethod
    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        """Return the delay (in simulated milliseconds) for one message."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__}>"


class FixedLatency(LatencyModel):
    """Constant one-way delay; the simplest deterministic model."""

    def __init__(self, delay_ms: float = 1.0) -> None:
        if delay_ms < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay_ms}")
        self.delay_ms = delay_ms

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        return self.delay_ms


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low_ms, high_ms]``."""

    def __init__(self, low_ms: float = 0.5, high_ms: float = 2.0) -> None:
        if low_ms < 0 or high_ms < low_ms:
            raise ConfigurationError(f"invalid uniform bounds [{low_ms}, {high_ms}]")
        self.low_ms = low_ms
        self.high_ms = high_ms

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        return rng.uniform(self.low_ms, self.high_ms)


class SizeDependentLatency(LatencyModel):
    """Propagation delay (from a base model) plus size-proportional transmission time.

    ``bytes_per_ms`` plays the role of effective bandwidth; the default of
    5000 bytes/ms (≈40 Mbit/s of usable goodput per connection, including
    serialisation overheads) makes kilobyte-scale metadata measurably painful
    without dwarfing propagation delay — the regime the Riak evaluation sits
    in.  A per-message fixed processing overhead can be added too, modelling
    serialisation/parsing cost that also grows with metadata in practice.
    """

    def __init__(self,
                 base: Optional[LatencyModel] = None,
                 bytes_per_ms: float = 5000.0,
                 per_message_overhead_ms: float = 0.05) -> None:
        if bytes_per_ms <= 0:
            raise ConfigurationError(f"bytes_per_ms must be positive, got {bytes_per_ms}")
        if per_message_overhead_ms < 0:
            raise ConfigurationError(
                f"per_message_overhead_ms must be non-negative, got {per_message_overhead_ms}"
            )
        self.base = base or UniformLatency(0.3, 1.0)
        self.bytes_per_ms = bytes_per_ms
        self.per_message_overhead_ms = per_message_overhead_ms

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        propagation = self.base.sample(rng, size_bytes)
        transmission = size_bytes / self.bytes_per_ms
        return propagation + transmission + self.per_message_overhead_ms


class PerLinkLatency(LatencyModel):
    """Wrapper assigning different models to different (sender, receiver) links.

    Useful for modelling a cluster spanning two sites: intra-site links get a
    fast model, inter-site links a slow one.  The transport calls
    :meth:`for_link` to resolve the model; :meth:`sample` falls back to the
    default model so the wrapper is still usable standalone.
    """

    def __init__(self, default: LatencyModel) -> None:
        self.default = default
        self._links: dict = {}

    def set_link(self, sender: str, receiver: str, model: LatencyModel,
                 symmetric: bool = True) -> None:
        """Assign ``model`` to the ``sender -> receiver`` link."""
        self._links[(sender, receiver)] = model
        if symmetric:
            self._links[(receiver, sender)] = model

    def for_link(self, sender: str, receiver: str) -> LatencyModel:
        """The model governing this link (default when unset)."""
        return self._links.get((sender, receiver), self.default)

    def sample(self, rng: random.Random, size_bytes: int = 0) -> float:
        return self.default.sample(rng, size_bytes)


class WanLatency(PerLinkLatency):
    """Topology-driven latency: intra-DC links fast, cross-DC links slow.

    Resolves each (sender, receiver) pair through the cluster
    :class:`~repro.cluster.topology.Topology` instead of an explicit link
    table: same-DC pairs use the ``intra`` model, different-DC pairs the
    ``cross`` model.  Explicit :meth:`set_link` overrides still win, so a
    single degraded link can be layered on top of the site model.  The
    defaults put intra-DC propagation well under a millisecond and cross-DC
    propagation in the tens of milliseconds — the WAN regime where the
    paper's metadata-size differences turn into visible request latency.

    All draws come from the ``rng`` the transport passes per message, so a
    seeded simulation replays the identical delay sequence.
    """

    #: Cross-DC bandwidth default: WAN links carry fewer bytes/ms than the
    #: intra-DC fabric, so big causality metadata hurts twice (propagation
    #: and transmission).
    def __init__(self, topology,
                 intra: Optional[LatencyModel] = None,
                 cross: Optional[LatencyModel] = None) -> None:
        self.topology = topology
        self.intra = intra or SizeDependentLatency(
            base=UniformLatency(0.2, 0.8), bytes_per_ms=5000.0)
        self.cross = cross or SizeDependentLatency(
            base=UniformLatency(12.0, 22.0), bytes_per_ms=1500.0)
        super().__init__(default=self.intra)

    def for_link(self, sender: str, receiver: str) -> LatencyModel:
        explicit = self._links.get((sender, receiver))
        if explicit is not None:
            return explicit
        if self.topology.is_local(sender, receiver):
            return self.intra
        return self.cross
