"""A unified metrics registry over the repo's scattered stats objects.

Five generations of subsystems each grew their own counters —
``StorageNode.stats`` dicts, :class:`~repro.network.transport.TransportStats`,
:class:`~repro.kvstore.protocol.anti_entropy.MerkleSyncStats`,
:class:`~repro.kvstore.read_repair.ReadRepairStats`, per-client request
records.  The :class:`MetricsRegistry` gives them one front door: direct
instruments (:class:`Counter` / :class:`Gauge`) for new code, and
*sources* — callables returning plain dicts — for the existing stats
objects, so none of them had to change shape to join.

One :meth:`MetricsRegistry.snapshot` call flattens everything into a stable,
JSON-serializable dict keyed by dotted names (``storage.hints_stored``,
``transport.bytes_delivered``, ``requests.latency_ms.p95``).  Nested dicts
returned by sources flatten recursively; keys are emitted sorted, so two
snapshots of identical state are identical objects.  Snapshots *read*; they
never mutate the underlying stats, so taking one is always safe mid-run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value: either set explicitly or read from a callable."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Any]] = None) -> None:
        self.name = name
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed; cannot set()")
        self._value = value

    def snapshot(self) -> Any:
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """A distribution of observations (latencies, batch sizes, span widths).

    Keeps exact samples up to ``sample_limit`` for percentile queries;
    beyond the cap only the running aggregates (count/sum/min/max) stay
    exact and percentiles are computed over the retained prefix.  The
    snapshot is a plain dict, so it flattens into dotted names like any
    nested source (``<name>.count``, ``<name>.p95``, ...).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_sample_limit")

    def __init__(self, name: str, sample_limit: int = 100_000) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._sample_limit = sample_limit

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._samples) < self._sample_limit:
            self._samples.append(value)

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    def percentile(self, q: float) -> float:
        """Exact percentile (nearest-rank) over the retained samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.min, 6) if self.min is not None else 0.0,
            "max": round(self.max, 6) if self.max is not None else 0.0,
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
        }


class MetricsRegistry:
    """The cluster-wide metric namespace: instruments plus pluggable sources.

    Instruments are created on first use (``registry.counter("x")`` twice
    returns the same object).  A *source* is a zero-argument callable
    returning a dict; it is evaluated at snapshot time, which is how the
    pre-existing stats objects join without changing shape — register
    ``("storage", cluster.stat_totals)`` and every key it returns appears
    as ``storage.<key>``.  Sources registered later under the same prefix
    replace the earlier one (idempotent wiring).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # ------------------------------------------------------------------ #
    # Instruments
    # ------------------------------------------------------------------ #
    def _instrument(self, name: str, factory: Callable[[], Any], kind: type):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}")
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, lambda: Counter(name), Counter)

    def gauge(self, name: str, fn: Optional[Callable[[], Any]] = None) -> Gauge:
        return self._instrument(name, lambda: Gauge(name, fn), Gauge)

    # ------------------------------------------------------------------ #
    # Sources (the bridge to pre-existing stats objects)
    # ------------------------------------------------------------------ #
    def register_source(self, prefix: str,
                        fn: Callable[[], Dict[str, Any]]) -> None:
        """Expose every key of ``fn()`` under ``<prefix>.<key>`` at snapshot."""
        self._sources[prefix] = fn

    # ------------------------------------------------------------------ #
    # Snapshot
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Every metric as one flat, sorted, JSON-serializable dict."""
        items: Dict[str, Any] = {}
        for name, instrument in self._instruments.items():
            _flatten(name, instrument.snapshot(), items)
        for prefix, fn in self._sources.items():
            _flatten(prefix, fn(), items)
        return {name: items[name] for name in sorted(items)}


def _flatten(prefix: str, value: Any, into: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key, child in value.items():
            _flatten(f"{prefix}.{key}", child, into)
    else:
        into[prefix] = value
