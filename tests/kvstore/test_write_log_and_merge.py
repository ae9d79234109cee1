"""Unit tests for the oracle write log and the sibling resolution strategies."""

from __future__ import annotations

import pytest

from repro.clocks import DVVMechanism, Sibling
from repro.core import ConfigurationError, Dot
from repro.kvstore import (
    CallbackResolver,
    ClientSession,
    LastWriterWins,
    SyncReplicatedStore,
    UnionMerge,
    WriteLog,
    WriteRecord,
    resolve_and_writeback,
)


def record(key, writer, seq, value=None):
    sibling = Sibling(value=value if value is not None else f"{writer}-{seq}",
                      origin_dot=Dot(writer, seq))
    return WriteRecord(key=key, sibling=sibling)


class TestWriteLog:
    def test_append_and_query(self):
        log = WriteLog()
        log.record(record("k", "c1", 1))
        log.append("k", record("k", "c2", 1).sibling)
        assert len(log) == 2
        assert log.keys() == ["k"]
        assert len(log.for_key("k")) == 2
        assert len(log.for_key("other")) == 0
        assert len(list(iter(log))) == 2

    def test_latest_frontier_excludes_dominated_writes(self):
        log = WriteLog()
        first = record("k", "c1", 1)
        second = record("k", "c1", 2)
        concurrent = record("k", "c2", 1)
        log.report_parents(second.origin_dot, [first.origin_dot])
        for entry in (first, second, concurrent):
            log.record(entry)
        frontier_dots = {entry.origin_dot for entry in log.latest_frontier("k")}
        assert frontier_dots == {Dot("c1", 2), Dot("c2", 1)}

    def test_unknown_reply_yields_no_dots(self):
        assert WriteLog().take_reply(12345) == ()

    def test_reply_dots_are_taken_once(self):
        log = WriteLog()
        log.note_reply(7, [Dot("c1", 1), Dot("c2", 3)])
        log.note_reply(8, [])
        assert log.take_reply(7) == (Dot("c1", 1), Dot("c2", 3))
        assert log.take_reply(7) == ()
        assert log.take_reply(8) == ()
        assert len(log) == 0      # replies are not writes


class TestResolvers:
    def make_siblings(self, *values):
        return [
            Sibling(value=value, origin_dot=Dot("c", index + 1))
            for index, value in enumerate(values)
        ]

    def test_last_writer_wins_picks_highest_dot(self):
        resolver = LastWriterWins()
        siblings = self.make_siblings("old", "new")
        assert resolver.resolve(siblings) == "new"
        with pytest.raises(ConfigurationError):
            resolver.resolve([])

    def test_union_merge(self):
        resolver = UnionMerge()
        siblings = self.make_siblings(["a", "b"], ["b", "c"])
        assert resolver.resolve(siblings) == ["a", "b", "c"]

    def test_union_merge_rejects_non_iterables(self):
        resolver = UnionMerge()
        with pytest.raises(ConfigurationError):
            resolver.resolve(self.make_siblings("scalar", ["x"]))
        with pytest.raises(ConfigurationError):
            resolver.resolve([])

    def test_callback_resolver(self):
        resolver = CallbackResolver(lambda siblings: max(s.value for s in siblings))
        assert resolver.resolve(self.make_siblings(3, 7, 5)) == 7


class TestResolveAndWriteback:
    def test_conflict_is_resolved_and_persisted(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A",))
        alice, bob, fixer = ClientSession("alice"), ClientSession("bob"), ClientSession("fixer")
        alice.get(store, "cart")
        bob.get(store, "cart")
        alice.put(store, "cart", ["apple"])
        bob.put(store, "cart", ["banana"])
        assert len(store.values("cart", "A")) == 2

        merged = resolve_and_writeback(store, "cart", fixer, UnionMerge())
        assert sorted(merged) == ["apple", "banana"]
        assert store.values("cart", "A") == [merged]

    def test_no_conflict_returns_single_value(self):
        store = SyncReplicatedStore(DVVMechanism(), server_ids=("A",))
        writer, reader = ClientSession("writer"), ClientSession("reader")
        writer.get(store, "k")
        writer.put(store, "k", "only")
        assert resolve_and_writeback(store, "k", reader, UnionMerge()) == "only"
        assert resolve_and_writeback(store, "missing", reader, UnionMerge()) is None
