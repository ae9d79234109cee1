"""``StorageNode.local_merge`` uses ``absorb`` only on a state it vouches for.

``absorb(stored, incoming)`` may assume ``stored`` is a merge result.  The
node vouches by identity: ``stored`` must be the very object ``local_merge``
last stored or kept for the key.  A client write, a handoff that stores a
state directly, a direct ``put_state`` and a wipe all replace or drop that
object, so the next merge runs the full ``merge``.  Since ``absorb`` equals
``merge``, a simulated run with ``absorb`` replaced by ``merge`` must hand
the Merkle trees the same states and count the same unchanged merges, under
client VV and under dvv alike.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.clocks import ClientVVMechanism, DVVMechanism, Sibling, create
from repro.core import Dot
from repro.kvstore import StorageNode
from repro.kvstore.merkle_index import MerkleIndex
from repro.workloads import CHURN_SCENARIOS, run_churn_scenario


class SpyMechanism(ClientVVMechanism):
    """Client VV that records which of ``merge`` / ``absorb`` ran, and on what."""

    def __init__(self) -> None:
        self.calls: List[tuple] = []

    def merge(self, state_a, state_b):
        self.calls.append(("merge", state_a))
        return super().merge(state_a, state_b)

    def absorb(self, stored, incoming):
        self.calls.append(("absorb", stored))
        return super().absorb(stored, incoming)


class Replica:
    """A node under test plus the remote writes it is sent."""

    def __init__(self) -> None:
        self.mechanism = SpyMechanism()
        self.node = StorageNode("A", self.mechanism)
        self.kept = None
        self.seq = 0

    def remote_write(self, state=None):
        """The node's state with one more client write on top, as a
        coordinator elsewhere would replicate it."""
        m = self.mechanism
        state = self.node.state_of("k") if state is None else state
        self.seq += 1
        written = Sibling(value=f"v{self.seq}", origin_dot=Dot(f"c{self.seq}", 1))
        return m.write(state, m.empty_context() if self.seq % 2 else m.read(state).context,
                       written, "B")

    def merge_in(self, remote) -> str:
        """``local_merge`` the remote state; returns which kernel it ran."""
        self.mechanism.calls.clear()
        stored = self.node.state_of("k")
        self.kept = self.node.local_merge("k", remote)
        (kernel, argument), = self.mechanism.calls
        assert argument is stored
        return kernel


def test_absorb_runs_only_on_the_state_local_merge_last_kept():
    replica = Replica()
    assert replica.merge_in(replica.remote_write()) == "merge"     # nothing kept yet
    for _ in range(3):
        kept = replica.kept
        assert replica.merge_in(replica.remote_write()) == "absorb"
        assert replica.mechanism.calls[0][1] is kept
    # An equal copy changes nothing: the same object stays stored and kept.
    kept = replica.kept
    assert replica.merge_in(tuple((clock, sibling) for clock, sibling in kept)) == "absorb"
    assert replica.kept is kept
    assert replica.merge_in(replica.remote_write()) == "absorb"


def test_a_client_write_voids_the_certificate():
    replica = Replica()
    replica.merge_in(replica.remote_write())
    written = Sibling(value="local", origin_dot=Dot("local", 1))
    replica.node.local_write("k", None, written)
    assert "k" not in replica.node._merged         # nothing superseded stays pinned
    assert replica.merge_in(replica.remote_write()) == "merge"
    assert replica.merge_in(replica.remote_write()) == "absorb"


def test_a_handoff_or_a_direct_store_voids_the_certificate():
    replica = Replica()
    node = replica.node
    replica.merge_in(replica.remote_write())
    # A fingerprint that does not match: ingest_handoff merges and stores
    # the result itself.
    node.ingest_handoff("k", replica.remote_write(), fingerprint=b"\x00" * 8)
    assert replica.merge_in(replica.remote_write()) == "merge"
    # The key is gone from the vnode and comes back as the sender's state,
    # adopted with the sender's fingerprint.
    sender = StorageNode("B", ClientVVMechanism())
    sender.local_merge("k", replica.remote_write(state=()))
    node.wipe(partition=node.storage.partition_map.partition_of("k"))
    assert not node.storage.has_key("k")
    node.ingest_handoff("k", sender.state_of("k"), sender.merkle_index.fingerprint("k"))
    assert replica.merge_in(replica.remote_write()) == "merge"
    assert replica.merge_in(replica.remote_write()) == "absorb"
    node.storage.put_state("k", replica.remote_write())
    assert replica.merge_in(replica.remote_write()) == "merge"


def test_a_wipe_voids_the_certificate():
    replica = Replica()
    replica.merge_in(replica.remote_write())
    replica.merge_in(replica.remote_write())
    replica.node.wipe()
    assert replica.node._merged == {}
    assert replica.merge_in(replica.remote_write()) == "merge"
    assert replica.merge_in(replica.remote_write()) == "absorb"


def replay(name: str, mechanism_class, monkeypatch):
    """One churn scenario under ``mechanism_class``: its report, every
    Merkle tree update in order, and how many times ``absorb`` ran."""
    notified, absorbed = [], []
    on_state_changed = MerkleIndex.on_state_changed
    absorb = mechanism_class.absorb

    def recording_update(self, key, state, fingerprint=None):
        notified.append((key, state, fingerprint))
        on_state_changed(self, key, state, fingerprint)

    def counting_absorb(self, stored, incoming):
        absorbed.append(stored)
        return absorb(self, stored, incoming)

    with monkeypatch.context() as patch:
        patch.setattr(MerkleIndex, "on_state_changed", recording_update)
        patch.setattr(mechanism_class, "absorb", counting_absorb)
        report = run_churn_scenario(name, create(mechanism_class.name))
    return report, notified, len(absorbed)


def assert_absorb_replaced_by_merge_is_the_same_run(name, mechanism_class, monkeypatch):
    report, notified, absorbed = replay(name, mechanism_class, monkeypatch)
    assert absorbed > 0
    with monkeypatch.context() as patch:
        patch.setattr(mechanism_class, "absorb", mechanism_class.merge)
        reference, reference_notified, _ = replay(name, mechanism_class, patch)
    assert report == reference
    assert report.stats["merges_unchanged"] == reference.stats["merges_unchanged"]
    assert notified == reference_notified


SCENARIOS = sorted(set(CHURN_SCENARIOS) - {"soak"})


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_run_with_absorb_replaced_by_merge_is_the_same_run(name, monkeypatch):
    assert_absorb_replaced_by_merge_is_the_same_run(name, ClientVVMechanism, monkeypatch)


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_dvv_run_with_absorb_replaced_by_merge_is_the_same_run(name, monkeypatch):
    assert_absorb_replaced_by_merge_is_the_same_run(name, DVVMechanism, monkeypatch)
