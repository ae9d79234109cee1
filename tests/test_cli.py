"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--mechanisms", "not-a-mechanism"])

    def test_mechanism_list_parsing(self):
        args = build_parser().parse_args(["figure1", "--mechanisms", "dvv,server_vv"])
        assert args.mechanisms == ["dvv", "server_vv"]


class TestMechanismsCommand:
    def test_lists_every_registered_mechanism(self, capsys):
        assert main(["mechanisms"]) == 0
        output = capsys.readouterr().out
        for name in ("dvv", "dvvset", "server_vv", "client_vv", "causal_history"):
            assert name in output


class TestFigure1Command:
    def test_default_panels(self, capsys):
        assert main(["figure1"]) == 0
        output = capsys.readouterr().out
        assert "causal_history" in output
        assert "server_vv" in output
        assert "dvv" in output
        assert "v4" in output

    def test_explicit_mechanisms(self, capsys):
        assert main(["figure1", "--mechanisms", "dvv"]) == 0
        output = capsys.readouterr().out
        assert "dvv" in output
        assert "server_vv" not in output


class TestScenarioCommand:
    def test_known_scenario(self, capsys):
        assert main(["scenario", "concurrent_writers", "--mechanism", "dvv"]) == 0
        output = capsys.readouterr().out
        assert "causally correct" in output
        assert "yes" in output

    def test_server_vv_flagged_incorrect_on_concurrent_writers(self, capsys):
        assert main(["scenario", "concurrent_writers", "--mechanism", "server_vv"]) == 0
        output = capsys.readouterr().out
        assert "lost updates" in output

    def test_unknown_scenario_fails(self, capsys):
        assert main(["scenario", "nonsense"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestCompareCommand:
    def test_small_comparison(self, capsys):
        assert main(["compare", "--clients", "6", "--operations", "40",
                     "--seed", "3", "--mechanisms", "dvv,server_vv"]) == 0
        output = capsys.readouterr().out
        assert "dvv" in output and "server_vv" in output
        assert "entries/key (max)" in output


class TestClusterCommand:
    def test_short_cluster_run(self, capsys):
        assert main(["cluster", "--mechanism", "dvv", "--clients", "4",
                     "--duration-ms", "150", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "requests completed" in output
        assert "mean latency (ms)" in output

    def test_sloppy_five_server_run(self, capsys):
        assert main(["cluster", "--mechanism", "dvv", "--clients", "2",
                     "--duration-ms", "120", "--quorum-mode", "sloppy",
                     "--servers", "5"]) == 0
        output = capsys.readouterr().out
        assert "quorum mode" in output and "sloppy" in output
        assert "requests failed" in output
        assert "request mode" not in output

    def test_request_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--request-mode", "async"])
        assert "--request-mode" in capsys.readouterr().err


def row_labels(output: str) -> list:
    """The metric column of a ``metric / value`` table."""
    lines = output.splitlines()
    start = next(index for index, line in enumerate(lines) if line.startswith("---"))
    return [re.split(r"\s{2,}", line)[0] for line in lines[start + 1:] if line.strip()]


class TestClusterCommandAsyncio:
    ARGS = ["cluster", "--mechanism", "dvv", "--clients", "2", "--duration-ms",
            "100", "--seed", "5"]

    def test_asyncio_table_has_every_simulator_row(self, capsys):
        assert main(self.ARGS) == 0
        sim_rows = row_labels(capsys.readouterr().out)
        assert main(self.ARGS + ["--backend", "asyncio"]) == 0
        output = capsys.readouterr().out
        assert set(sim_rows) <= set(row_labels(output))
        assert re.search(r"^converged +yes$", output, re.MULTILINE)

    def test_convergence_timeout_reports_no_and_exits_1(self, capsys, monkeypatch):
        from repro.kvstore import AsyncioCluster

        async def never_converges(self, timeout_s=30.0, poll_s=0.05):
            raise TimeoutError(f"cluster did not converge within {timeout_s}s")

        monkeypatch.setattr(AsyncioCluster, "converge", never_converges)
        assert main(self.ARGS + ["--backend", "asyncio"]) == 1
        assert re.search(r"^converged +no$", capsys.readouterr().out, re.MULTILINE)


class TestChurnCommand:
    def test_elasticity_scenario(self, capsys):
        assert main(["churn", "--scenario", "elasticity", "--mechanism", "dvv",
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "converged" in output and "yes" in output
        assert "handoff keys" in output
        assert "merkle key syncs" in output

    def test_flappy_scenario_reports_hints(self, capsys):
        assert main(["churn", "--scenario", "flappy_replica", "--mechanism",
                     "dvvset", "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "hint replays" in output

    def test_sloppy_partition_scenario(self, capsys):
        assert main(["churn", "--scenario", "sloppy_partition", "--mechanism", "dvv",
                     "--quorum-mode", "sloppy", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "sloppy_partition" in output
        assert "requests failed" in output

    def test_sloppy_partition_strict_mode_reports_failures(self, capsys):
        assert main(["churn", "--scenario", "sloppy_partition", "--mechanism", "dvv",
                     "--quorum-mode", "strict", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "strict" in output

    @pytest.mark.parametrize("flag", [["--zipf-s", "1.5"], ["--duration-ms", "300"]])
    def test_overrides_apply_to_every_scenario(self, capsys, flag):
        args = ["churn", "--scenario", "elasticity", "--mechanism", "dvv"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + flag) == 0
        assert capsys.readouterr().out != default

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--scenario", "nonsense"])

    def test_unknown_quorum_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--quorum-mode", "wishful"])
