"""Unit tests for node storage and the replica-local server operations."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, Sibling
from repro.core import Dot, StaleContextError
from repro.kvstore import NodeStorage, StorageNode
from repro.kvstore.context import CausalContext


def sibling(value, writer="c1", seq=1):
    dot = Dot(writer, seq)
    return Sibling(value=value, origin_dot=dot, writer=writer)


class TestNodeStorage:
    def test_missing_key_returns_empty_state(self):
        storage = NodeStorage(DVVMechanism())
        state = storage.get_state("nope")
        assert storage.mechanism.is_empty(state)
        assert "nope" not in storage

    def test_put_and_get_state(self):
        mechanism = DVVMechanism()
        storage = NodeStorage(mechanism)
        state = mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                                sibling("v1"), "A", "c1")
        storage.put_state("k", state)
        assert storage.has_key("k")
        assert storage.sibling_count("k") == 1
        assert storage.keys() == ["k"]

    def test_storing_empty_state_removes_key(self):
        mechanism = DVVMechanism()
        storage = NodeStorage(mechanism)
        state = mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                                sibling("v1"), "A", "c1")
        storage.put_state("k", state)
        storage.put_state("k", mechanism.empty_state())
        assert not storage.has_key("k")

    def test_delete_and_len(self):
        mechanism = DVVMechanism()
        storage = NodeStorage(mechanism)
        state = mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                                sibling("v1"), "A", "c1")
        storage.put_state("k1", state)
        storage.put_state("k2", state)
        assert len(storage) == 2
        storage.delete("k1")
        assert len(storage) == 1
        assert list(dict(storage.items())) == ["k2"]

    def test_metadata_accounting_aggregates(self):
        mechanism = DVVMechanism()
        storage = NodeStorage(mechanism)
        state = mechanism.write(mechanism.empty_state(), mechanism.empty_context(),
                                sibling("v1"), "A", "c1")
        storage.put_state("k1", state)
        storage.put_state("k2", state)
        assert storage.metadata_entries() == 2 * storage.metadata_entries("k1")
        assert storage.metadata_bytes() == 2 * storage.metadata_bytes("k1")
        assert storage.metadata_entries("missing") == 0


class TestStorageNode:
    def test_local_write_then_read(self):
        node = StorageNode("A", DVVMechanism())
        node.local_write("k", None, sibling("v1"), "c1")
        read = node.local_read("k")
        assert [s.value for s in read.siblings] == ["v1"]
        assert node.values_of("k") == ["v1"]
        assert node.stats["writes"] == 1
        assert node.stats["reads"] == 1

    def test_context_key_mismatch_rejected(self):
        node = StorageNode("A", DVVMechanism())
        bad_context = CausalContext.initial("other-key", "dvv",
                                            DVVMechanism().empty_context())
        with pytest.raises(StaleContextError):
            node.local_write("k", bad_context, sibling("v1"), "c1")

    def test_local_merge_brings_in_remote_state(self):
        mechanism = DVVMechanism()
        source = StorageNode("A", mechanism)
        target = StorageNode("B", mechanism)
        source.local_write("k", None, sibling("v1"), "c1")
        target.local_merge("k", source.state_of("k"))
        assert target.values_of("k") == ["v1"]
        assert target.stats["merges"] == 1

    def test_metadata_passthrough(self):
        node = StorageNode("A", DVVMechanism())
        node.local_write("k", None, sibling("v1"), "c1")
        assert node.metadata_entries("k") >= 1
        assert node.metadata_bytes() > 0


class TestHintDurability:
    """Hints live in the storage layer and share the disk's fate."""

    def make_node(self):
        node = StorageNode("A", DVVMechanism())
        state = node.local_write("k", None, sibling("v1"), "c1")
        return node, state

    def test_hints_are_persisted_in_node_storage(self):
        node, state = self.make_node()
        hint = node.store_hint("B", "k", state)
        assert node.pending_hints() == 1
        assert node.hint_targets() == ["B"]
        # The hint is held by the storage layer, not by in-memory server state.
        assert node.storage.pending_hints() == 1
        assert [h.hint_id for h in node.storage.hints_for("B")] == [hint.hint_id]
        assert node.stats["hints_stored"] == 1

    def test_hints_survive_when_storage_object_is_retained(self):
        """A process restart keeps the disk — and with it the hints."""
        node, state = self.make_node()
        node.store_hint("B", "k", state)
        disk = node.storage
        restarted = StorageNode("A", DVVMechanism())
        restarted.storage = disk            # same disk, new process
        assert restarted.pending_hints() == 1
        assert restarted.hints_for("B")[0].key == "k"

    def test_wiped_storage_loses_hints(self):
        node, state = self.make_node()
        node.store_hint("B", "k", state)
        node.storage = NodeStorage(DVVMechanism())   # disk loss
        assert node.pending_hints() == 0
        assert node.hint_targets() == []

    def test_clear_hints_partial_and_full(self):
        node, state = self.make_node()
        first = node.store_hint("B", "k", state)
        second = node.store_hint("B", "k2", state)
        node.clear_hints("B", [first.hint_id])
        assert [h.hint_id for h in node.hints_for("B")] == [second.hint_id]
        node.clear_hints("B")
        assert node.pending_hints() == 0
