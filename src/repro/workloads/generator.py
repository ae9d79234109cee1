"""Synthetic workload generation.

The paper's quantitative results come from running a storage cluster under
client traffic; since the original traces are not available, this module
generates parameterised synthetic workloads that exercise the behaviours the
evaluation depends on:

* many clients performing read-modify-write sessions on a shared set of keys
  (the clock-growth driver for per-client version vectors);
* deliberate concurrency: several clients holding stale contexts writing the
  same key (the sibling driver);
* occasional blind writes and session resets (what real, imperfect clients do);
* periodic anti-entropy between replicas.

The output is a mechanism-agnostic :class:`~repro.workloads.traces.Trace`, so
one generated workload can be replayed under every causality mechanism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.exceptions import ConfigurationError
from .traces import Trace


def zipf_weights(count: int, s: float) -> List[float]:
    """Zipfian popularity weights for ``count`` ranked keys.

    ``s`` is the skew exponent: 0 gives uniform weights, ~1 the classic
    web-traffic skew where the rank-0 key dominates.  Shared by the trace
    generator and the closed-loop cluster drivers so "hot key" means the
    same thing in both worlds (rank 0 = hottest).
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if s <= 0:
        return [1.0] * count
    return [1.0 / ((rank + 1) ** s) for rank in range(count)]


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload.

    Attributes
    ----------
    clients:
        Number of distinct client sessions.
    servers:
        Replica server ids.
    keys:
        Number of distinct keys (keys are named ``key-0`` ... ``key-{n-1}``).
    operations:
        Total number of client operations to generate (excluding syncs).
    read_probability:
        Probability that an operation is a GET (the rest are writes).
    blind_write_probability:
        Probability that a write ignores the client's context.
    forget_probability:
        Probability, per operation, that the acting client first drops its
        context for the key (session reset).
    sync_every:
        Insert a full anti-entropy round every this many client operations
        (None disables background sync; the trace can still end with one).
    final_sync:
        Append a final full sync so replicas converge before analysis.
    zipf_s:
        Skew of the key-popularity distribution (0 = uniform).  Higher values
        concentrate traffic on few keys, increasing write concurrency.
    stale_read_probability:
        Probability that a writing client *skips* the read it would normally
        do first, reusing an old context — the knob that directly creates
        concurrent siblings.
    seed:
        RNG seed; the same config + seed always yields the same trace.
    """

    clients: int = 8
    servers: Sequence[str] = ("A", "B", "C")
    keys: int = 4
    operations: int = 200
    read_probability: float = 0.5
    blind_write_probability: float = 0.05
    forget_probability: float = 0.02
    sync_every: Optional[int] = 25
    final_sync: bool = True
    zipf_s: float = 0.0
    stale_read_probability: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError("workload needs at least one client")
        if self.keys < 1:
            raise ConfigurationError("workload needs at least one key")
        if self.operations < 1:
            raise ConfigurationError("workload needs at least one operation")
        for name in ("read_probability", "blind_write_probability",
                     "forget_probability", "stale_read_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    def client_ids(self) -> List[str]:
        """The generated client identifiers."""
        return [f"client-{index}" for index in range(self.clients)]

    def key_names(self) -> List[str]:
        """The generated key names."""
        return [f"key-{index}" for index in range(self.keys)]


class WorkloadGenerator:
    """Generates traces from a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._value_counter = 0
        self._key_weights = self._build_key_weights()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> Trace:
        """Generate one trace according to the config."""
        config = self.config
        trace = Trace(server_ids=tuple(config.servers),
                      name=f"synthetic(seed={config.seed})",
                      metadata={"config": config})
        clients = config.client_ids()
        # Which clients have read a key at least once (so PUTs can be chained).
        has_context = {(client, key): False for client in clients for key in config.key_names()}

        for index in range(config.operations):
            client = self._rng.choice(clients)
            key = self._pick_key()
            server = self._rng.choice(list(config.servers))

            if self._rng.random() < config.forget_probability:
                if has_context[(client, key)]:
                    trace.forget(client, key)
                    has_context[(client, key)] = False

            if self._rng.random() < config.read_probability:
                trace.get(client, key, server=server)
                has_context[(client, key)] = True
            else:
                self._generate_write(trace, client, key, server, has_context)

            if config.sync_every and (index + 1) % config.sync_every == 0:
                trace.sync_all()

        if config.final_sync:
            trace.sync_all()
        return trace

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _generate_write(self, trace: Trace, client: str, key: str, server: str,
                        has_context: dict) -> None:
        config = self.config
        self._value_counter += 1
        value = f"{client}:v{self._value_counter}"
        if self._rng.random() < config.blind_write_probability:
            trace.blind_put(client, key, value, server=server)
            return
        # A well-behaved client reads before writing; a "stale" client reuses
        # whatever context it already had (possibly none), which is what makes
        # two clients' writes concurrent.
        if not has_context[(client, key)] or self._rng.random() >= config.stale_read_probability:
            trace.get(client, key, server=server)
            has_context[(client, key)] = True
        trace.put(client, key, value, server=server)

    def _build_key_weights(self) -> List[float]:
        return zipf_weights(self.config.keys, self.config.zipf_s)

    def _pick_key(self) -> str:
        keys = self.config.key_names()
        return self._rng.choices(keys, weights=self._key_weights, k=1)[0]


def generate_workload(config: Optional[WorkloadConfig] = None, **overrides) -> Trace:
    """One-call convenience: build a config (with overrides) and generate a trace."""
    if config is None:
        config = WorkloadConfig(**overrides)
    elif overrides:
        raise ConfigurationError("pass either a config object or keyword overrides, not both")
    return WorkloadGenerator(config).generate()
