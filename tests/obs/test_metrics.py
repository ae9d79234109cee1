"""Unit tests for the metrics registry and its instruments."""

from __future__ import annotations

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("ops")
        assert counter.snapshot() == 0
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5

    def test_rejects_decrements(self):
        counter = Counter("ops")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_settable_gauge(self):
        gauge = Gauge("queue_depth")
        assert gauge.snapshot() == 0
        gauge.set(17)
        assert gauge.snapshot() == 17

    def test_callback_gauge_reads_live(self):
        state = {"value": 1}
        gauge = Gauge("live", fn=lambda: state["value"])
        assert gauge.snapshot() == 1
        state["value"] = 9
        assert gauge.snapshot() == 9

    def test_callback_gauge_cannot_be_set(self):
        gauge = Gauge("live", fn=lambda: 0)
        with pytest.raises(ValueError):
            gauge.set(3)


class TestHistogram:
    def test_empty_snapshot_is_all_zeros(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["sum"] == 0
        assert snap["p50"] == 0.0 and snap["p99"] == 0.0

    def test_aggregates_and_percentiles(self):
        histogram = Histogram("lat")
        histogram.observe_many(float(v) for v in range(1, 101))
        snap = histogram.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == 5050.0
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert snap["mean"] == 50.5
        assert snap["p50"] == 51.0  # nearest-rank over 0-indexed samples
        assert snap["p95"] == 95.0

    def test_sample_cap_keeps_aggregates_exact(self):
        histogram = Histogram("lat", sample_limit=10)
        histogram.observe_many(float(v) for v in range(1000))
        snap = histogram.snapshot()
        # aggregates over everything, percentiles over the retained prefix
        assert snap["count"] == 1000
        assert snap["max"] == 999.0
        assert snap["p99"] <= 9.0


class TestMetricsRegistry:
    def test_instruments_are_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_flattens_and_sorts(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc(3)
        registry.gauge("lat", lambda: {"count": 1})
        registry.register_source("src", lambda: {"a": 1, "nested": {"b": 2}})
        snap = registry.snapshot()
        assert snap["zz"] == 3
        assert snap["lat.count"] == 1
        assert snap["src.a"] == 1
        assert snap["src.nested.b"] == 2
        assert list(snap) == sorted(snap)

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.register_source("s", lambda: {"x": 1.5})
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_source_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.register_source("s", lambda: {"v": 1})
        registry.register_source("s", lambda: {"v": 2})
        assert registry.snapshot() == {"s.v": 2}

    def test_sources_read_live_state(self):
        state = {"v": 1}
        registry = MetricsRegistry()
        registry.register_source("s", lambda: dict(state))
        assert registry.snapshot()["s.v"] == 1
        state["v"] = 7
        assert registry.snapshot()["s.v"] == 7
