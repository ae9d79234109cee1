"""A read-digest collision can make a read stale; it never loses a write.

Both ends of a digest read take the digest from ``state_digest``.  Patched to
return one constant, every replica "agrees" with every coordinator, so every
``REPLICA_GET_REPLY`` is bare and each read answers from the coordinator's
own state alone.  Such a read may miss versions, but the client's next write
does not cover what it did not see, so those versions stay concurrent, and
anti-entropy — which compares whole fingerprints — still converges the
replicas.  The oracle must find no lost update and no false concurrency.
"""

from __future__ import annotations

import pytest

from repro.clocks import create
from repro.kvstore.protocol import coordinator, replica
from repro.kvstore.protocol.env import READ_DIGEST_BYTES, REQUEST_OVERHEAD_BYTES
from repro.network.message import MessageType
from repro.workloads import run_churn_scenario

REPLY = MessageType.REPLICA_GET_REPLY.value


@pytest.fixture
def colliding_digests(monkeypatch):
    def constant(mechanism, state) -> bytes:
        return bytes(READ_DIGEST_BYTES)

    monkeypatch.setattr(coordinator, "state_digest", constant)
    monkeypatch.setattr(replica, "state_digest", constant)


@pytest.mark.parametrize("mechanism_name", ["dvv", "client_vv", "dvvset"])
@pytest.mark.parametrize("scenario", ["hot_key", "soak", "sloppy_partition"])
def test_every_reply_bare_and_no_update_lost(colliding_digests, scenario,
                                             mechanism_name):
    report = run_churn_scenario(scenario, create(mechanism_name))

    stats = report.cluster.transport.stats
    replies = stats.per_type[REPLY]
    assert replies > 0
    assert stats.bytes_per_type[REPLY] == replies * REQUEST_OVERHEAD_BYTES
    assert report.cluster.metrics_snapshot()["coordinator.unchanged_replies"] > 0
    assert report.converged
    assert report.lost_updates == 0
    assert report.false_concurrency == 0
