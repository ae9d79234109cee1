"""Sibling explosion under Zipfian hot-key skew, per causality mechanism.

The paper's mechanisms differ most visibly when many clients hammer one key
with stale contexts: exact mechanisms keep every concurrent version as a
sibling (and collapse them again once readers resolve), per-server version
vectors silently drop frontier writes (Figure 1b), and aggressively pruned
client vectors resurrect causally ordered writes as bogus siblings.  This
benchmark drives ``run_churn_scenario("hot_key", ...)`` — Zipf-skewed
closed-loop traffic, stale write contexts, a primary of the hot key crashing
and recovering mid-run — and reports, per mechanism, the sibling-count and
metadata-size series over simulated time plus the write-log oracle's verdict.

Besides the pytest benchmarks, the module runs standalone as a smoke check
for CI::

    PYTHONPATH=src python benchmarks/bench_hot_key.py --smoke --out BENCH_hot_key.json

which fails (non-zero exit) if any mechanism stops converging, an exact
mechanism loses a frontier write, the workload stops generating sibling
pressure, or the two baseline pathologies (server_vv losing updates,
client_vv_pruned_5 fabricating concurrency) stop reproducing.  The JSON is
checked in and picked up by ``tools/render_dashboard.py``.
"""

from __future__ import annotations

import json
import pathlib
import sys

try:  # pragma: no cover - trivial import guard (script mode)
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - only on uninstalled checkouts
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.analysis import render_table
from repro.clocks import create
from repro.workloads import run_churn_scenario

#: The mechanisms the skew sweep compares: the paper's exact ones, the
#: Figure 1b per-server baseline, and a pruned client vector.
MECHANISMS = ["dvv", "dvvset", "causal_history", "dotted_vve",
              "server_vv", "client_vv_pruned_5"]
EXACT = ("dvv", "dvvset", "causal_history", "dotted_vve")

SEED = 17


def hot_key_run(mechanism_name: str, seed: int = SEED):
    """One skewed run; returns the scenario's ChurnReport."""
    return run_churn_scenario("hot_key", create(mechanism_name), seed=seed)


def summarize(report) -> dict:
    """The dashboard-facing scalars plus the raw per-run series."""
    series = [list(row) for row in report.sibling_series]
    final_metadata = series[-1][2] if series else 0
    peak_metadata = max((row[2] for row in series), default=0)
    return {
        "converged": report.converged,
        "max_sibling_count": report.max_sibling_count,
        "final_sibling_count": series[-1][1] if series else 0,
        "peak_metadata_bytes": peak_metadata,
        "final_metadata_bytes": final_metadata,
        "lost_updates": report.lost_updates,
        "false_concurrency": report.false_concurrency,
        "requests_completed": report.requests_completed,
        "requests_failed": report.requests_failed,
        # (t_ms, hot-key max siblings, cluster metadata bytes) samples;
        # ignored by the dashboard's numeric flattener, kept for plotting.
        "series": series,
    }


@pytest.fixture(scope="module")
def skew_sweep():
    return {name: summarize(hot_key_run(name)) for name in MECHANISMS}


def test_report_hot_key_sibling_pressure(skew_sweep, publish):
    rows = [[name,
             sweep["max_sibling_count"], sweep["final_sibling_count"],
             sweep["peak_metadata_bytes"],
             sweep["lost_updates"], sweep["false_concurrency"],
             sweep["converged"]]
            for name, sweep in skew_sweep.items()]
    table = render_table(
        ["mechanism", "peak siblings", "final siblings", "peak metadata B",
         "lost updates", "false concurrency", "converged"],
        rows,
        title="Hot-key skew — sibling pressure and oracle verdict per mechanism",
    )
    publish("hot_key_sibling_pressure", table)
    for name, sweep in skew_sweep.items():
        assert sweep["converged"], name
    for name in EXACT:
        assert skew_sweep[name]["lost_updates"] == 0, name
        assert skew_sweep[name]["false_concurrency"] == 0, name
        # skew really bit: concurrent versions piled up at some point
        assert skew_sweep[name]["max_sibling_count"] >= 2, name
    # The two pathologies the paper contrasts against:
    assert skew_sweep["server_vv"]["lost_updates"] > 0
    assert skew_sweep["client_vv_pruned_5"]["false_concurrency"] > 0


def test_report_exact_mechanisms_resolve_siblings(skew_sweep, publish):
    """Read-modify-write traffic eventually collapses the pile-up: the
    settled frontier is far below the in-flight peak for exact mechanisms."""
    rows = []
    for name in EXACT:
        sweep = skew_sweep[name]
        rows.append([name, sweep["max_sibling_count"],
                     sweep["final_sibling_count"]])
        assert sweep["final_sibling_count"] <= sweep["max_sibling_count"]
    table = render_table(
        ["mechanism", "peak siblings", "settled siblings"],
        rows,
        title="Hot-key skew — peak vs settled sibling counts (exact mechanisms)",
    )
    publish("hot_key_sibling_resolution", table)


@pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset"])
def test_benchmark_hot_key_scenario(benchmark, mechanism_name):
    report = benchmark.pedantic(lambda: hot_key_run(mechanism_name),
                                rounds=3, iterations=1)
    assert report.converged


def run_smoke(results_path: str = "BENCH_hot_key.json",
              seed: int = SEED) -> int:
    """Quick regression gate for CI.

    Four checks: (1) every mechanism converges under hot-key skew; (2) exact
    mechanisms keep the generalized lost-update invariant (oracle: zero lost,
    zero false concurrency) while actually under sibling pressure; (3) the
    per-server VV baseline still loses frontier writes — the Figure 1b
    pathology the scenario exists to expose; (4) the pruned client VV still
    fabricates false concurrency.  The per-mechanism series and verdicts are
    written to ``results_path`` for the dashboard and CI artifacts.
    """
    results: dict = {"seed": seed, "mechanisms": {}}
    for name in MECHANISMS:
        results["mechanisms"][name] = summarize(hot_key_run(name, seed=seed))
    sweeps = results["mechanisms"]

    print(render_table(
        ["mechanism", "peak siblings", "final siblings", "peak metadata B",
         "lost", "false conc", "converged"],
        [[name, sweep["max_sibling_count"], sweep["final_sibling_count"],
          sweep["peak_metadata_bytes"], sweep["lost_updates"],
          sweep["false_concurrency"], sweep["converged"]]
         for name, sweep in sweeps.items()],
        title=f"Hot-key skew smoke (seed={seed})",
    ))

    for name, sweep in sweeps.items():
        if not sweep["converged"]:
            print(f"FAIL: {name} did not converge under hot-key skew",
                  file=sys.stderr)
            return 1
    for name in EXACT:
        if sweeps[name]["lost_updates"] != 0 or sweeps[name]["false_concurrency"] != 0:
            print(f"FAIL: exact mechanism {name} broke the lost-update "
                  f"invariant (lost={sweeps[name]['lost_updates']}, "
                  f"false={sweeps[name]['false_concurrency']})", file=sys.stderr)
            return 1
        if sweeps[name]["max_sibling_count"] < 2:
            print(f"FAIL: {name} saw no sibling pressure — the skewed "
                  "workload went soft and the invariant is vacuous",
                  file=sys.stderr)
            return 1
    if sweeps["server_vv"]["lost_updates"] <= 0:
        print("FAIL: server_vv no longer loses updates under skew "
              "(the scenario stopped reproducing Figure 1b)", file=sys.stderr)
        return 1
    if sweeps["client_vv_pruned_5"]["false_concurrency"] <= 0:
        print("FAIL: client_vv_pruned_5 no longer shows false concurrency "
              "under skew", file=sys.stderr)
        return 1
    exact_losses = sum(sweeps[name]["lost_updates"] for name in EXACT)
    print(f"OK: exact mechanisms kept every frontier write ({exact_losses} "
          f"lost) at peak sibling counts "
          f"{[sweeps[name]['max_sibling_count'] for name in EXACT]}; "
          f"server_vv lost {sweeps['server_vv']['lost_updates']}, "
          f"client_vv_pruned_5 fabricated "
          f"{sweeps['client_vv_pruned_5']['false_concurrency']} false pairs")
    pathlib.Path(results_path).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {results_path}")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the quick skew regression check")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", default="BENCH_hot_key.json",
                        help="where --smoke writes its measured numbers as JSON")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    raise SystemExit(run_smoke(results_path=args.out, seed=args.seed))
