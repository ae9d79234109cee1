"""Every registered mechanism's metadata accounting, pinned per replica and key.

``golden_mechanism_accounting.json`` holds, for each mechanism in
``available()`` and each trace below, one record per ``(server, key)`` the
replay left behind: ``metadata_entries``, ``metadata_bytes``, the
``context_bytes`` of a read's context, ``is_empty`` and the stored siblings'
origin dots in the mechanism's order.  It also pins what the empty state
reports.  A change to how a mechanism stores, orders or sizes its clocks
shows up here as a diff, not as a quietly different metadata figure in the
paper's comparison.

To re-capture after a change that is meant to move these figures, run this
module as a script (``PYTHONPATH=src python tests/clocks/test_mechanism_accounting_pin.py``)
and list the moved records in the change's notes.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Dict

import pytest

from repro.clocks import available, create
from repro.workloads import (Trace, figure1_trace, generate_workload, named_scenarios,
                             replay_trace)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_mechanism_accounting.json"


def _workload() -> Trace:
    # The last sync is 20 operations before the end, so replicas differ.
    return generate_workload(clients=12, keys=3, operations=300, seed=2012,
                             sync_every=40, final_sync=False)


def traces() -> Dict[str, Callable[[], Trace]]:
    """Trace name -> a builder of a fresh copy of that trace."""
    builders: Dict[str, Callable[[], Trace]] = {"figure1": figure1_trace}
    for name in named_scenarios():
        builders[name] = lambda name=name: named_scenarios()[name]
    builders["workload:12c,3k,300ops,seed=2012"] = _workload
    return builders


def key_record(mechanism, state) -> list:
    """``[entries, bytes, context bytes, is_empty, [[actor, counter], ...]]``."""
    return [
        mechanism.metadata_entries(state),
        mechanism.metadata_bytes(state),
        mechanism.context_bytes(mechanism.read(state).context),
        mechanism.is_empty(state),
        [[sibling.origin_dot.actor, sibling.origin_dot.counter]
         for sibling in mechanism.siblings(state)],
    ]


def capture(mechanism_name: str, trace_name: str) -> dict:
    """``"server/key"`` -> :func:`key_record`, plus the empty state's record."""
    mechanism = create(mechanism_name)
    store = replay_trace(traces()[trace_name](), mechanism).store
    records = {"(empty)": key_record(mechanism, mechanism.empty_state())}
    for server_id in sorted(store.servers):
        for key, state in sorted(store.servers[server_id].storage.items()):
            records[f"{server_id}/{key}"] = key_record(mechanism, state)
    # Through JSON, so tuples compare as the lists the fixture holds.
    return json.loads(json.dumps(records))


def capture_all() -> dict:
    return {mechanism_name: {trace_name: capture(mechanism_name, trace_name)
                             for trace_name in traces()}
            for mechanism_name in available()}


def test_fixture_covers_every_mechanism_and_trace():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == available()
    for mechanism_name in golden:
        assert sorted(golden[mechanism_name]) == sorted(traces())


@pytest.mark.parametrize("trace_name", sorted(traces()))
@pytest.mark.parametrize("mechanism_name", available())
def test_accounting_matches_golden(mechanism_name, trace_name):
    expected = json.loads(GOLDEN_PATH.read_text())[mechanism_name][trace_name]
    actual = capture(mechanism_name, trace_name)
    assert sorted(actual) == sorted(expected), "replicas or keys changed"
    for where in expected:
        assert actual[where] == expected[where], f"{mechanism_name} {trace_name} {where}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_all(), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
