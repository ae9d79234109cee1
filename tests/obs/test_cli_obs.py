"""The CLI side of observability: ``--stats-json`` and ``--trace``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def check_stats_file(path):
    """The checks CI's asyncio smoke makes of a ``--stats-json`` file."""
    stats = json.loads(path.read_text())
    assert isinstance(stats, dict) and stats
    assert all(isinstance(value, (int, float, str, bool))
               for value in stats.values())
    assert stats["requests.latency_ms.count"] == stats["requests.ok"]
    assert stats["requests.completed"] == (
        stats["requests.ok"] + stats["requests.failed"])
    return stats


def table_rows(output):
    """``label -> value`` for every two-column row a CLI table prints."""
    rows = {}
    for line in output.splitlines():
        label, _, value = line.rpartition("  ")
        if label.strip():
            rows[label.strip()] = value.strip()
    return rows


def assert_table_latency_is_the_snapshot(output, stats):
    rows = table_rows(output)
    assert rows["requests completed"] == str(stats["requests.completed"])
    for label, name in (("mean latency (ms)", "mean"),
                        ("p95 latency (ms)", "p95"),
                        ("p99 latency (ms)", "p99")):
        assert rows[label] == f"{round(stats[f'requests.latency_ms.{name}'], 3):.2f}"


class TestParserAcceptsObservabilityFlags:
    def test_cluster_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--stats-json", "s.json", "--trace", "t.jsonl"])
        assert args.stats_json == "s.json"
        assert args.trace == "t.jsonl"

    def test_churn_flags(self):
        args = build_parser().parse_args(
            ["churn", "--stats-json", "s.json", "--trace", "t.jsonl"])
        assert args.stats_json == "s.json"
        assert args.trace == "t.jsonl"

    def test_connect_trace_flag(self):
        args = build_parser().parse_args(
            ["connect", "--socket-dir", "/tmp/x", "--trace", "t.jsonl",
             "get", "cart"])
        assert args.trace == "t.jsonl"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["cluster"])
        assert args.stats_json is None
        assert args.trace is None


class TestClusterStatsAndTrace:
    def test_cluster_writes_stats_and_trace(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["cluster", "--mechanism", "dvv", "--clients", "3",
                     "--duration-ms", "150", "--seed", "5",
                     "--stats-json", str(stats_path),
                     "--trace", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert str(stats_path) in output
        assert str(trace_path) in output

        stats = json.loads(stats_path.read_text())
        assert stats["requests.completed"] > 0
        assert "transport.bytes_delivered" in stats
        assert list(stats) == sorted(stats)

        events = read_jsonl(trace_path)
        assert events
        assert {event["event"] for event in events} <= {"start", "end", "point"}
        assert any(event.get("name") == "client.put" for event in events)
        assert any(event.get("name") == "coordinator.put" for event in events)

    @pytest.mark.parametrize("mechanism", ["dvv", "client_vv", "dvvset", "causal_history"])
    def test_stats_file_passes_the_smoke_check_and_matches_the_table(
            self, mechanism, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert main(["cluster", "--mechanism", mechanism, "--clients", "3",
                     "--duration-ms", "150", "--seed", "5",
                     "--stats-json", str(stats_path)]) == 0
        stats = check_stats_file(stats_path)
        assert stats["requests.ok"] > 0
        assert_table_latency_is_the_snapshot(capsys.readouterr().out, stats)

    def test_asyncio_stats_file_matches_the_table(self, tmp_path, capsys):
        """Wall-clock latencies: the table and the file summarise them once."""
        stats_path = tmp_path / "stats.json"
        assert main(["cluster", "--backend", "asyncio", "--mechanism", "dvv",
                     "--clients", "2", "--duration-ms", "150",
                     "--stats-json", str(stats_path)]) == 0
        stats = check_stats_file(stats_path)
        assert stats["requests.ok"] > 0
        assert_table_latency_is_the_snapshot(capsys.readouterr().out, stats)

    def test_cluster_runs_clean_without_flags(self, capsys):
        assert main(["cluster", "--mechanism", "dvv", "--clients", "2",
                     "--duration-ms", "100", "--seed", "5"]) == 0
        assert "requests completed" in capsys.readouterr().out


class TestChurnStatsAndTrace:
    def test_churn_writes_stats_and_trace(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["churn", "--scenario", "elasticity", "--mechanism", "dvv",
                     "--stats-json", str(stats_path),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        stats = json.loads(stats_path.read_text())
        assert stats["requests.completed"] > 0
        assert read_jsonl(trace_path)

    def test_failed_requests_leave_the_latency_block(self, tmp_path, capsys):
        """The flapping replica fails a request; only successes are timed."""
        stats_path = tmp_path / "stats.json"
        assert main(["churn", "--scenario", "flappy_replica", "--mechanism", "dvv",
                     "--stats-json", str(stats_path)]) == 0
        capsys.readouterr()
        stats = check_stats_file(stats_path)
        assert stats["requests.failed"] > 0
        assert stats["requests.latency_ms.count"] < stats["requests.completed"]
