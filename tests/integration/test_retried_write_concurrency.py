"""The false concurrency of churn ``soak`` seed 10 is a write coordinated twice.

``run_churn_scenario("soak", create("dvv"), seed=10)`` converges with no lost
update, yet the oracle counts one false-concurrency pair on ``key-7``:
``client-0:v12`` and ``client-1:v7`` both survive although v12 read v7.  The
cause is the client's failover (``ClientProtocol._on_client_deadline``): v7's
first coordinator, n1, applied the put as ``(n1, 3)`` but did not answer
before the client's deadline, so the client re-sent the same logical write to
the next candidate, n6.  Between the two, client-0 read the first copy at n6
and wrote v12 over it.  The retry then minted a second dot, ``(n6, 3)``, over
v7's original context, which v12 never saw — so the DVV rightly keeps it
beside v12.  The oracle names a write by its origin dot, so it counts the two
copies as one write that v12 descends.

This pins that shape, so a change that moves it (a mechanism that really
fabricates concurrency, or an oracle that tells retries apart) shows here.
"""

from __future__ import annotations

import pytest

from repro.analysis.correctness import check_cluster
from repro.clocks import create
from repro.core import Dot, DottedVersionVector, VersionVector
from repro.workloads.scenarios import run_churn_scenario

KEY = "key-7"
V7 = Dot("client-1", 7)
V12 = Dot("client-0", 12)


@pytest.fixture(scope="module")
def report():
    return run_churn_scenario("soak", create("dvv"), seed=10)


def test_the_one_false_pair_is_v12_over_v7(report):
    assert report.converged
    assert report.lost_updates == 0
    assert report.false_concurrency == 1
    pairs = {key: verdict.false_concurrency_pairs
             for key, verdict in check_cluster(report.cluster).per_key.items()
             if verdict.false_concurrency_pairs}
    assert pairs == {KEY: [(V12, V7)]}


def test_v7_was_accepted_twice_the_second_time_after_v12(report):
    log = report.cluster.write_log
    order = [record.origin_dot for record in log.for_key(KEY)]
    assert order.count(V7) == 2
    assert order.count(V12) == 1
    first_v7, v12 = order.index(V7), order.index(V12)
    second_v7 = order.index(V7, first_v7 + 1)
    assert first_v7 < v12 < second_v7
    # The oracle: v12 read v7, so v7 is in v12's ground-truth past.
    assert V7 in log.history_of(V12).past


def test_v12_clock_does_not_cover_the_surviving_copy_of_v7(report):
    states = {server.node.storage.get_state(KEY)
              for server in report.cluster.servers.values()
              if server.node.storage.has_key(KEY)}
    assert len(states) == 1  # converged
    clocks = {sibling.origin_dot: clock for clock, sibling in states.pop()}
    assert clocks == {
        V12: DottedVersionVector(Dot("n6", 2), VersionVector({"n1": 3, "n6": 1})),
        V7: DottedVersionVector(Dot("n6", 3), VersionVector({"n1": 2, "n6": 1})),
    }
    assert not clocks[V12].contains_dot(clocks[V7].dot)
    assert clocks[V12].concurrent_with(clocks[V7])
