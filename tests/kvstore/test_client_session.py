"""Unit tests for client sessions and causal contexts."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, Sibling
from repro.core import Dot, VersionVector
from repro.kvstore import ClientSession, GetResult, SyncReplicatedStore
from repro.kvstore.context import CausalContext


class TestCausalContext:
    def test_initial(self):
        context = CausalContext.initial("k", "dvv", VersionVector.empty())
        assert context.key == "k"
        assert context.mechanism_name == "dvv"
        assert context.read_dots == ()

    def test_read_dots_take_no_part_in_equality(self):
        bare = CausalContext.initial("k", "dvv", VersionVector.empty())
        noted = CausalContext(key="k", mechanism_context=VersionVector.empty(),
                              mechanism_name="dvv", read_dots=(Dot("c1", 1),))
        assert bare == noted


class TestClientSession:
    def test_write_sequence_is_monotonic(self):
        session = ClientSession("c1")
        first = session.prepare_write("k", "v1")
        second = session.prepare_write("k", "v2")
        assert first.origin_dot == Dot("c1", 1)
        assert second.origin_dot == Dot("c1", 2)

    def test_write_history_follows_supplied_context(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A",))
        session = ClientSession("c1")
        base = session.put(store, "k", "v1").sibling
        session.get(store, "k")
        follow_up = session.put(store, "k", "v2").sibling
        assert base.origin_dot in store.write_log.history_of(follow_up.origin_dot)
        # a context-less write is causally independent
        blind = session.put(store, "k", "v3", use_context=False).sibling
        assert base.origin_dot not in store.write_log.history_of(blind.origin_dot)

    def test_absorb_read_tracks_context_and_observations(self):
        session = ClientSession("c1")
        sibling = Sibling("v1", Dot("w", 1))

        class FakeRead:
            siblings = [sibling]
            context = VersionVector({"A": 1})

        context = session.absorb_read("k", FakeRead(), "dvv")
        assert context.mechanism_context == VersionVector({"A": 1})
        assert context.read_dots == (Dot("w", 1),)
        assert session.last_context("k") is context

    def test_forget_clears_context(self):
        session = ClientSession("c1")
        sibling = Sibling("v1", Dot("w", 1))

        class FakeRead:
            siblings = [sibling]
            context = VersionVector({"A": 1})

        session.absorb_read("k", FakeRead(), "dvv")
        session.forget("k")
        assert session.last_context("k") is None


class TestGetResult:
    def test_single_value_access(self):
        context = CausalContext.initial("k", "dvv", VersionVector.empty())
        single = GetResult("k", ["v"], [], context)
        assert single.value == "v"

    def test_empty_and_conflicting_values(self):
        context = CausalContext.initial("k", "dvv", VersionVector.empty())
        empty = GetResult("k", [], [], context)
        assert empty.value is None
        conflict = GetResult("k", ["a", "b"], [], context)
        with pytest.raises(ValueError):
            _ = conflict.value


class TestSessionAgainstStore:
    def test_get_put_round_trip(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A", "B"))
        client = ClientSession("alice")
        result = client.get(store, "cart")
        assert result.values == []
        client.put(store, "cart", ["apple"])
        again = client.get(store, "cart")
        assert again.value == ["apple"]
        assert client.stats == {"gets": 2, "puts": 1}

    def test_put_without_context_is_blind(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A",))
        alice, bob = ClientSession("alice"), ClientSession("bob")
        alice.get(store, "k")
        alice.put(store, "k", "from-alice")
        bob.get(store, "k")
        bob.put(store, "k", "from-bob", use_context=False)
        values = sorted(store.values("k", "A"))
        assert values == ["from-alice", "from-bob"]
