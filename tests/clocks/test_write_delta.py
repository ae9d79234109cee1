"""The write-delta law, over reachable states, for every registered mechanism.

A coordinator ships ``write_delta(write(S, ctx, s))`` to the other replicas
instead of the whole new state.  That is sound when joining the delta into the
state the write was applied to gives the write's result again:

    merge(S, write_delta(write(S, ctx, s))) == write(S, ctx, s)

up to the merge's order (both sides are compared in the merge's own normal
form, ``merge(empty, X)``).  The states are *reachable*: built by sequences of
PUTs (blind, or carrying a context read at some replica), retried PUTs (the
same origin dot written again, so one origin dot gets two coordinator dots)
and replica synchronisations, never by drawing arbitrary clocks.

A pruned client VV's write is not an inflation once pruning discards an
entry: an entry the unpruned clock superseded need not be below the pruned
one, so merging the old state back resurrects it (the false concurrency
experiment E3 measures).  For those writes the tests hold only the weaker
form — the delta reaches what the whole new state reaches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import Sibling, available, create
from repro.clocks.pruning import PrunedClientVVMechanism
from repro.core import Dot

SERVERS = ("A", "B", "C")
CLIENTS = 8        # more writers than client_vv_pruned_5 keeps entries for

put_ops = st.tuples(st.just("put"), st.sampled_from(SERVERS),
                    st.integers(min_value=0, max_value=CLIENTS - 1),
                    st.sampled_from(SERVERS + (None,)))
retry_ops = st.tuples(st.just("retry"), st.sampled_from(SERVERS))
sync_ops = st.tuples(st.just("sync"), st.sampled_from(SERVERS),
                     st.sampled_from(SERVERS))
operations = st.lists(
    st.tuples(st.one_of(put_ops, put_ops, retry_ops, sync_ops),
              st.lists(st.booleans(), min_size=len(SERVERS),
                       max_size=len(SERVERS))),
    min_size=1, max_size=30)


def normal(mechanism, state):
    """``state`` in the merge's normal form (its order, duplicates folded)."""
    return mechanism.merge(mechanism.empty_state(), state)


def pruned_so_far(mechanism) -> int:
    return mechanism.pruned_entries if isinstance(mechanism, PrunedClientVVMechanism) else 0


class Run:
    """Replays an op sequence; every write checks the law as it goes."""

    def __init__(self, mechanism) -> None:
        self.mechanism = mechanism
        self.states = {server: mechanism.empty_state() for server in SERVERS}
        self.counters = [0] * CLIENTS
        self.last_put = None

    def put(self, coordinator, context, sibling, delivered):
        mechanism = self.mechanism
        before = self.states[coordinator]
        pruned = pruned_so_far(mechanism)
        written = mechanism.write(before, context, sibling, coordinator)
        delta = mechanism.write_delta(written)
        joined = mechanism.merge(before, delta)
        assert joined == mechanism.merge(before, written)
        if pruned_so_far(mechanism) == pruned:
            assert joined == normal(mechanism, written), (before, written, delta)
        self.states[coordinator] = written
        for server, push in zip(SERVERS, delivered):
            if push and server != coordinator:
                self.states[server] = mechanism.merge(self.states[server], delta)
        return written, delta

    def apply(self, op, delivered):
        mechanism = self.mechanism
        if op[0] == "put":
            _, coordinator, client, read_at = op
            context = (mechanism.read(self.states[read_at]).context
                       if read_at is not None else mechanism.empty_context())
            self.counters[client] += 1
            sibling = Sibling(f"v{sum(self.counters)}",
                              Dot(f"c{client}", self.counters[client]))
            self.last_put = (context, sibling)
            self.put(coordinator, context, sibling, delivered)
        elif op[0] == "retry" and self.last_put is not None:
            # The client timed out and sent the same write again, possibly to
            # another coordinator: one origin dot, a second coordinator dot.
            context, sibling = self.last_put
            self.put(op[1], context, sibling, delivered)
        elif op[0] == "sync" and op[1] != op[2]:
            target = self.states[op[2]]
            self.states[op[2]] = mechanism.merge(target, self.states[op[1]])


@pytest.mark.parametrize("name", available())
@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_joining_the_delta_gives_the_write_result(name, ops):
    run = Run(create(name))
    for op, delivered in ops:
        run.apply(op, delivered)


@pytest.mark.parametrize("name", available())
@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_a_replica_fed_only_deltas_matches_the_coordinator(name, ops):
    """A takes every write; B hears of them only through the deltas it is
    sent, some of which are lost, and clients read at either.  Merging A's
    state into B's then leaves exactly A's state: whatever B kept that A no
    longer holds is below something A holds."""
    run = Run(create(name))
    for op, delivered in ops:
        if op[0] == "put":
            run.apply(("put", "A", op[2], op[3] if op[3] != "C" else None),
                      (False, delivered[1], False))
        elif op[0] == "retry":
            run.apply(("retry", "A"), (False, delivered[1], False))
    coordinator = run.states["A"]
    if pruned_so_far(run.mechanism) == 0:
        assert (run.mechanism.merge(run.states["B"], coordinator)
                == normal(run.mechanism, coordinator))


def test_a_retried_put_keeps_the_law():
    """The retry lands beside the first copy under dvv: two entries, two
    coordinator dots, one origin dot.  The delta is the second copy, read off
    the write, not found by searching for the sibling (which finds the
    first).  client_vv mints the retry above the first copy and drops it."""
    for name, copies in (("dvv", 2), ("client_vv", 1)):
        run = Run(create(name))
        run.apply(("put", "A", 0, None), (True, True, True))
        run.apply(("put", "B", 1, "B"), (True, True, True))
        context, sibling = run.last_put
        written, delta = run.put("C", context, sibling, (True, True, True))
        assert [entry[1] for entry in written].count(sibling) == copies
        assert delta == written[-1:] and delta[0][1] == sibling


@pytest.mark.parametrize("name", [name for name in available()
                                  if name not in ("dvv", "client_vv")])
def test_every_other_mechanism_ships_the_whole_new_state(name):
    """Only dvv and client_vv ship one entry.  The pruned client VVs keep the
    default rather than inheriting client_vv's, so E3's numbers do not move."""
    mechanism = create(name)
    written = mechanism.empty_state()
    for client in ("c0", "c1"):     # two blind writes: two siblings
        written = mechanism.write(written, mechanism.empty_context(),
                                  Sibling(client, Dot(client, 1)), "A")
    assert len(mechanism.siblings(written)) == 2
    assert mechanism.write_delta(written) is written
