"""Every churn scenario's report, pinned field by field.

``golden_churn_reports.json`` holds one entry per run below: each scenario
at its default seed plus the variants other tests and benches run.  An entry
pins every :class:`~repro.workloads.ChurnReport` field except ``cluster``,
and three footprints of the simulation underneath it: virtual time at the
end, events processed and messages sent.  A change to how a scenario builds
its cluster, schedules its faults, drives traffic or settles shows up here
as a diff, not as a quietly different run.

To re-capture after a change that is meant to move a scenario, run this
module as a script (``PYTHONPATH=src python tests/workloads/test_churn_golden.py``)
and list the moved fields in the change's notes.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.clocks import create
from repro.obs import InMemoryTraceSink, Tracer
from repro.workloads import ChurnReport, run_churn_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_churn_reports.json"

#: entry name -> (scenario, mechanism, spec changes)
RUNS = {
    "elasticity": ("elasticity", "dvv", {}),
    "elasticity:seed=21": ("elasticity", "dvv", {"seed": 21}),
    "flappy_replica": ("flappy_replica", "dvv", {}),
    "flappy_replica:seed=31": ("flappy_replica", "dvvset", {"seed": 31}),
    "flappy_replica:seed=41,wipe": ("flappy_replica", "dvv",
                                    {"seed": 41, "wipe_on_recover": True}),
    "sloppy_partition": ("sloppy_partition", "dvv", {}),
    "sloppy_partition:strict": ("sloppy_partition", "dvv",
                                {"quorum_mode": "strict"}),
    "hot_key": ("hot_key", "dvv", {}),
    "multi_dc": ("multi_dc", "dvv", {}),
    "soak": ("soak", "dvv", {}),
    "soak:600ms,1flap": ("soak", "dvv", {"duration_ms": 600.0, "flaps": 1}),
}


def report_footprint(report: ChurnReport) -> dict:
    """Every report field but ``cluster``, plus the simulation's end state."""
    footprint = {field.name: getattr(report, field.name)
                 for field in dataclasses.fields(report) if field.name != "cluster"}
    cluster = report.cluster
    footprint["now"] = cluster.simulation.now
    footprint["events_processed"] = cluster.simulation.events_processed
    footprint["transport_sent"] = cluster.transport.stats.sent
    # Through JSON, so tuples compare as the lists the fixture holds.
    return json.loads(json.dumps(footprint))


def run_entry(name: str, tracer=None) -> dict:
    scenario, mechanism, changes = RUNS[name]
    return report_footprint(run_churn_scenario(scenario, create(mechanism),
                                               tracer=tracer, **changes))


def test_fixture_covers_every_run():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(RUNS)


# The id prefix keeps "soak" from being a bare keyword: that marks a test soak.
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(RUNS), ids=lambda name: f"golden-{name}")
def test_churn_report_matches_golden(name, traced):
    sink = InMemoryTraceSink()
    expected = json.loads(GOLDEN_PATH.read_text())[name]
    actual = run_entry(name, tracer=Tracer(sink) if traced else None)
    assert sorted(actual) == sorted(expected), f"{name}: footprint fields changed"
    for field in expected:
        assert actual[field] == expected[field], f"{name}: {field} diverged"
    assert bool(sink.events) == traced


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: run_entry(name) for name in sorted(RUNS)},
                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(RUNS)} entries -> {GOLDEN_PATH}")
