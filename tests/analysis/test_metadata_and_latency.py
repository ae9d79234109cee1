"""Unit tests for metadata accounting and latency analysis."""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_requests,
    compare_reports,
    measure_simulated_cluster,
    measure_sync_store,
)
from repro.clocks import ClientVVMechanism, DVVMechanism, create
from repro.kvstore import RequestRecord, SimulatedCluster
from repro.network import FixedLatency
from repro.workloads import WorkloadConfig, generate_workload, replay_trace


class TestMeasureSyncStore:
    def build_reports(self, clients=12, operations=80, seed=3):
        trace = generate_workload(WorkloadConfig(clients=clients, operations=operations,
                                                 seed=seed))
        reports = {}
        for name in ("dvv", "client_vv"):
            result = replay_trace(trace, create(name))
            result.store.converge()
            reports[name] = measure_sync_store(result.store)
        return reports

    def test_report_fields(self):
        reports = self.build_reports()
        report = reports["dvv"]
        assert report.mechanism == "dvv"
        assert report.keys >= 1
        assert report.total_entries > 0
        assert report.total_bytes > 0
        assert report.per_key_entries.mean > 0

    def test_dvv_smaller_than_client_vv(self):
        reports = self.build_reports()
        comparison = compare_reports(reports, baseline="client_vv", challenger="dvv")
        assert comparison["entries_ratio"] > 1.0
        assert comparison["bytes_ratio"] > 1.0

    def test_empty_store(self):
        from repro.kvstore import SyncReplicatedStore
        report = measure_sync_store(SyncReplicatedStore(DVVMechanism(), server_ids=("A",)))
        assert report.keys == 0
        assert report.total_entries == 0


class TestMeasureSimulatedCluster:
    def test_cluster_measurement(self):
        cluster = SimulatedCluster(DVVMechanism(), server_ids=("n1", "n2", "n3"),
                                   latency=FixedLatency(0.5),
                                   anti_entropy_interval_ms=None, seed=2)
        client = cluster.client("alice")
        client.put("k", "v1", lambda r: client.get("k"))
        cluster.drain()
        report = measure_simulated_cluster(cluster)
        assert report.keys == 1
        assert report.total_entries >= 1
        assert report.context_bytes is not None


class TestAnalyzeRequests:
    def make_records(self):
        return [
            RequestRecord("get", "k", "c1", started_at=0.0, finished_at=2.0, ok=True,
                          context_bytes=10),
            RequestRecord("get", "k", "c1", started_at=1.0, finished_at=5.0, ok=True,
                          context_bytes=10),
            RequestRecord("put", "k", "c1", started_at=2.0, finished_at=3.0, ok=True,
                          context_bytes=30),
            RequestRecord("put", "k", "c1", started_at=9.0, finished_at=9.5, ok=False),
        ]

    def test_report_contents(self):
        report = analyze_requests("dvv", self.make_records())
        assert report.requests == 3          # the failed one is excluded
        assert report.overall.mean == pytest.approx((2 + 4 + 1) / 3)
        assert set(report.by_operation) == {"get", "put"}
        assert report.by_operation["put"].mean == pytest.approx(1.0)
        assert report.mean_context_bytes == pytest.approx((10 + 10 + 30) / 3)
        assert report.throughput_per_s > 0

    def test_empty_records(self):
        report = analyze_requests("dvv", [])
        assert report.requests == 0
        assert report.throughput_per_s == 0.0

    def test_explicit_duration(self):
        report = analyze_requests("dvv", self.make_records(), duration_ms=1000.0)
        assert report.duration_ms == 1000.0
        assert report.throughput_per_s == pytest.approx(3.0)
