"""Bounded soak runs: churn × skew × WAN partition flap, end to end.

The full matrix (every exact mechanism, long virtual duration, several WAN
flaps) is marked ``soak`` and deselected from the tier-1 run — CI runs it as
a separate job with ``-m soak``.  A single short smoke variant stays in the
default suite so the scenario itself can never silently rot.

The exit bar is the same everywhere: the cluster converges, the write-log
oracle finds no lost update and no false concurrency for exact mechanisms,
and the scheduled churn (join, decommission, WAN flaps) actually happened.
"""

from __future__ import annotations

import pytest

from repro.clocks import create
from repro.workloads import run_churn_scenario

EXACT = ["dvv", "dvvset", "causal_history", "dotted_vve"]


def assert_soak_invariants(report, mechanism_name: str) -> None:
    assert report.converged, f"{mechanism_name}: soak run failed to converge"
    assert report.lost_updates == 0, (
        f"{mechanism_name}: soak run lost {report.lost_updates} frontier writes"
    )
    assert report.false_concurrency == 0, (
        f"{mechanism_name}: soak run fabricated "
        f"{report.false_concurrency} falsely concurrent pairs"
    )
    # The churn schedule really ran: node joined, node left, WAN flapped.
    assert report.joined == ["n7"]
    assert report.departed == ["n1"]
    assert report.partition_flaps >= 1
    assert report.requests_completed > 0


class TestSoakSmoke:
    """Short soak kept in the default suite so the scenario cannot rot."""

    def test_short_soak_holds_invariants(self):
        report = run_churn_scenario("soak", create("dvv"), seed=29,
                                    duration_ms=600.0, flaps=1)
        assert_soak_invariants(report, "dvv")


@pytest.mark.soak
class TestSoakLong:
    """The long matrix: every exact mechanism, more flaps, longer runs."""

    @pytest.mark.parametrize("mechanism_name", EXACT)
    @pytest.mark.parametrize("seed", [29, 31])
    def test_long_soak_holds_invariants(self, mechanism_name, seed):
        report = run_churn_scenario("soak", create(mechanism_name), seed=seed,
                                    duration_ms=4000.0, flaps=3)
        assert_soak_invariants(report, mechanism_name)
        # A long skewed run must actually generate sibling pressure.
        assert report.max_sibling_count >= 2

    def test_long_soak_server_vv_loses_updates(self):
        """Control: the per-server VV baseline must show losses on a long
        soak — otherwise the oracle (or the workload) went soft."""
        report = run_churn_scenario("soak", create("server_vv"), seed=29,
                                    duration_ms=4000.0, flaps=3)
        assert report.converged
        assert report.lost_updates > 0
