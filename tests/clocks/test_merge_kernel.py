"""The linear DVV merge kernel equals the pairwise definition it replaced.

``repro.core.dvv.merge_versions`` keeps an entry iff its dot is outside the
pointwise maximum of every entry's causal past — one pass, one membership
test per entry.  The definition it must agree with is pairwise: an entry
survives iff no *other* entry's past contains its dot.  That definition lives
here, as the reference (:func:`pairwise_merge` is the kernel ``src/`` shipped
until ``WIRE_VERSION`` 3, verbatim), and both users of the kernel —
``DVVMechanism.merge`` on ``(clock, sibling)`` pairs and ``dvv.sync`` on bare
clocks — are compared with it, order included, on

* states reached by random write / merge traces over three replicas, with
  fresh, stale and blind contexts (what the store produces);
* arbitrary valid entry lists (what only a hand could build: overlapping
  pasts, gaps, the same dot over different pasts);
* the named corner cases, spelled out.

``DVVMechanism.absorb`` folds a state into a merge result, in one pass when
the state is one entry; it is held to ``merge`` on merge results of the same
traces (its own results included) and on named cases.  ``DVVMechanism.write``
filters with direct lookups and mints through a one-pass
``max_counter_for``; it is held to the paper's ``update`` + ``discard``,
written out here the way ``src/`` had them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import DVVMechanism, Sibling
from repro.core import Dot, DottedVersionVector, VersionVector
from repro.core.dvv import discard, sync as dvv_sync

SERVERS = ["A", "B", "C"]
MECHANISM = DVVMechanism()

Entry = Tuple[DottedVersionVector, Sibling]


def pairwise_merge(entries: Sequence[Entry]) -> List[Entry]:
    """Reference: same-dot dedupe, then ``happens_before`` against everyone."""
    by_dot = {}
    for clock, sibling in entries:
        existing = by_dot.get(clock.dot)
        if existing is None or clock.causal_past.descends(existing[0].causal_past):
            by_dot[clock.dot] = (clock, sibling)
    merged = list(by_dot.values())
    survivors = [
        (clock, sibling) for clock, sibling in merged
        if not any(clock.happens_before(other) for other, _ in merged)
    ]
    survivors.sort(key=lambda item: item[0].dot)
    return survivors


def assert_kernel_matches(left: Sequence[Entry], right: Sequence[Entry]) -> None:
    expected = pairwise_merge(tuple(left) + tuple(right))
    merged = MECHANISM.merge(tuple(left), tuple(right))
    assert list(merged) == expected      # siblings (uid included) and order
    assert dvv_sync([clock for clock, _ in left],
                    [clock for clock, _ in right]) == [c for c, _ in expected]


def sibling(index: int) -> Sibling:
    return Sibling(value=f"v{index}", origin_dot=Dot("writer", index + 1))


# --------------------------------------------------------------------------- #
# States the store can reach
# --------------------------------------------------------------------------- #
_STEP = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(SERVERS),
              st.sampled_from(["fresh", "stale", "blind"]),
              st.integers(min_value=0, max_value=1 << 16)),
    st.tuples(st.just("merge"), st.sampled_from(SERVERS),
              st.sampled_from(SERVERS)),
)


class Trace(NamedTuple):
    replicas: Dict[str, tuple]      # each replica's last state
    reached: List[tuple]            # every state a step produced, in order
    merged: List[tuple]             # every merge result, in order
    contexts: List[VersionVector]   # every context a read returned, the empty one too


def replay(steps, on_merge=lambda source, target: None) -> Trace:
    """Run a write / merge trace over three replicas, calling ``on_merge``
    before each merge."""
    m = MECHANISM
    replicas = {server: m.empty_state() for server in SERVERS}
    contexts = [m.empty_context()]
    reached, merged = [], []
    writes = 0
    for step in steps:
        if step[0] == "write":
            _, server, kind, pick = step
            fresh = m.read(replicas[server]).context
            contexts.append(fresh)
            context = {"fresh": fresh, "blind": m.empty_context(),
                       "stale": contexts[pick % len(contexts)]}[kind]
            replicas[server] = m.write(replicas[server], context,
                                       sibling(writes), server)
            writes += 1
            reached.append(replicas[server])
        else:
            _, source, target = step
            on_merge(replicas[source], replicas[target])
            replicas[target] = m.merge(replicas[source], replicas[target])
            reached.append(replicas[target])
            merged.append(replicas[target])
    return Trace(replicas, reached, merged, contexts)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=40))
def test_kernel_equals_pairwise_on_write_merge_traces(steps):
    replicas = replay(steps, on_merge=assert_kernel_matches).replicas
    for source in SERVERS:
        for target in SERVERS:
            assert_kernel_matches(replicas[source], replicas[target])


# --------------------------------------------------------------------------- #
# Entry lists only a hand could build
# --------------------------------------------------------------------------- #
@st.composite
def clocks(draw) -> DottedVersionVector:
    past = draw(st.dictionaries(st.sampled_from(SERVERS),
                                st.integers(min_value=1, max_value=5)))
    actor = draw(st.sampled_from(SERVERS))
    # A dot may not lie inside its own past; anything above it is valid,
    # gaps included.
    counter = past.get(actor, 0) + draw(st.integers(min_value=1, max_value=3))
    return DottedVersionVector(Dot(actor, counter), VersionVector(past))


@settings(max_examples=300, deadline=None)
@given(left=st.lists(clocks(), max_size=12), right=st.lists(clocks(), max_size=12))
def test_kernel_equals_pairwise_on_arbitrary_entry_lists(left, right):
    entries = [(clock, sibling(index))
               for index, clock in enumerate(left + right)]
    assert_kernel_matches(entries[:len(left)], entries[len(left):])


def dvv(actor: str, counter: int, **past: int) -> DottedVersionVector:
    return DottedVersionVector(Dot(actor, counter), VersionVector(past))


def test_same_dot_keeps_the_larger_past_and_the_later_pair_on_a_tie():
    small, large = dvv("A", 3, A=1), dvv("A", 3, A=2, B=1)
    sideways = dvv("A", 3, C=4)                     # concurrent past: first stays
    for left, right in [
        ([(small, sibling(0))], [(large, sibling(1))]),
        ([(large, sibling(0))], [(small, sibling(1))]),
        ([(small, sibling(0))], [(dvv("A", 3, A=1), sibling(1))]),
        ([(small, sibling(0))], [(sideways, sibling(1))]),
        ([(sideways, sibling(0)), (large, sibling(1))], [(small, sibling(2))]),
    ]:
        assert_kernel_matches(left, right)
    kept = MECHANISM.merge(((small, sibling(0)),), ((large, sibling(1)),))
    assert [clock for clock, _ in kept] == [large]


def test_entry_dominated_only_transitively_is_dropped():
    # (A,1) is in nobody's past but (B,1)'s, and (B,1) is itself obsolete.
    oldest, middle, newest = dvv("A", 1), dvv("B", 1, A=1), dvv("C", 1, B=1)
    entries = [(oldest, sibling(0)), (middle, sibling(1)), (newest, sibling(2))]
    assert_kernel_matches(entries[:2], entries[2:])
    assert_kernel_matches(entries[2:], entries[:2])
    merged = MECHANISM.merge(tuple(entries[:2]), tuple(entries[2:]))
    assert [clock for clock, _ in merged] == [newest]


def test_duplicates_across_and_within_both_inputs_collapse():
    first, second = dvv("A", 2, A=1), dvv("B", 1)
    shared = (first, sibling(0))
    left = [shared, (second, sibling(1)), shared]
    right = [(second, sibling(2)), shared, (dvv("A", 2, A=1), sibling(3))]
    assert_kernel_matches(left, right)
    assert_kernel_matches(right, left)
    assert_kernel_matches(left, left)
    assert len(MECHANISM.merge(tuple(left), tuple(right))) == 2


def test_mutually_covering_hand_built_clocks_drop_each_other():
    # Impossible in a run, representable by hand: each past holds the other's
    # dot.  The pairwise definition drops both; so must the kernel.
    left, right = dvv("A", 2, B=3), dvv("B", 3, A=2)
    assert_kernel_matches([(left, sibling(0))], [(right, sibling(1))])
    assert MECHANISM.merge(((left, sibling(0)),), ((right, sibling(1)),)) == ()


# --------------------------------------------------------------------------- #
# absorb: a one-entry state folded into a merge result in one pass
# --------------------------------------------------------------------------- #
def assert_absorb_matches(stored, incoming: Sequence[Entry]):
    """``absorb`` equals ``merge`` in value, order and element identity, or
    is ``stored`` itself when the merge equals it (always so for one
    incoming entry); returns the result."""
    incoming = tuple(incoming)
    got = MECHANISM.absorb(stored, incoming)
    expected = MECHANISM.merge(stored, incoming)
    assert got == expected
    if got is not stored:
        assert all(mine is theirs for mine, theirs in zip(got, expected))
    if len(incoming) == 1 and expected == stored:
        assert got is stored
    return got


def incoming_pool(stored, reached) -> List[Entry]:
    """Entries an incoming state can hold: every entry the trace produced
    (older and newer than ``stored``'s), ``stored``'s own entry objects and
    copies of them, a blind write onto ``stored``, and each clock again with
    an equal sibling, an equal clock and another sibling."""
    produced = [entry for state in reached for entry in state]
    blind = MECHANISM.write(stored, MECHANISM.empty_context(), sibling(99), "C")
    pool = produced + list(stored) + [tuple(entry) for entry in stored]
    pool += MECHANISM.write_delta(blind)
    for index, (clock, written) in enumerate(produced[:6]):
        pool.append((DottedVersionVector(clock.dot, VersionVector(clock.causal_past.entries())),
                     written))
        pool.append((clock, Sibling(written.value, written.origin_dot)))
        pool.append((clock, sibling(100 + index)))
    return pool


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=30), data=st.data())
def test_absorb_equals_merge_on_merge_results_of_traces(steps, data):
    trace = replay(steps)
    stored = data.draw(st.sampled_from(
        trace.merged + [MECHANISM.merge(trace.reached[-1], ())]))
    for _ in range(2):      # the second round absorbs into absorb's result
        pool = incoming_pool(stored, trace.reached)
        picks = data.draw(st.one_of(
            st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=1),
            st.lists(st.integers(0, len(pool) - 1), max_size=4)))
        stored = assert_absorb_matches(stored, [pool[pick] for pick in picks])


def test_absorb_of_a_write_delta_equals_merge_on_every_merge_result():
    # What a replica folds in: each merge result of a long trace, and the
    # delta of a fresh, a stale and a blind write onto every state reached.
    steps = [("write", SERVERS[n % 3], ("fresh", "stale", "blind")[n % 3], n * 7)
             if n % 4 else ("merge", SERVERS[n % 3], SERVERS[(n + 1) % 3])
             for n in range(60)]
    trace = replay(steps)
    deltas = [MECHANISM.write_delta(MECHANISM.write(state, context, sibling(500 + n), "A"))
              for n, (state, context) in enumerate(zip(trace.reached, trace.contexts))]
    for stored in trace.merged:
        for delta in deltas:
            assert_absorb_matches(assert_absorb_matches(stored, delta), deltas[0])


def test_absorb_named_cases():
    m = MECHANISM
    s_a, s_b = (dvv("A", 2, A=1), sibling(0)), (dvv("B", 1, A=1), sibling(1))
    stored = m.merge((s_b, s_a), ())
    assert stored == (s_a, s_b)
    same_clock = (s_a[0], sibling(2))                         # s_a's clock object
    equal_past = (dvv("A", 2, A=1), s_a[1])                   # s_a, as equal objects
    larger = (dvv("A", 2, A=1, C=1), sibling(3))              # same dot, past above
    smaller = (dvv("A", 2), sibling(4))                       # same dot, past below
    sideways = (dvv("A", 2, C=1), sibling(5))                 # same dot, past beside
    above_both = (dvv("C", 1, A=2, B=1), sibling(6))          # drops s_a and s_b
    above_one = (dvv("A", 3, A=2), sibling(7))                # drops s_a, goes first
    below = (dvv("A", 1), sibling(8))                         # inside s_a's past
    beside = (dvv("B", 2, A=1), sibling(9))                   # concurrent, goes last
    cases = [
        [same_clock], [equal_past], [larger], [smaller], [sideways],
        [above_both], [above_one], [below], [beside], [s_a], [tuple(s_b)],
        [], [above_one, below], [beside, sideways, s_b],
    ]
    for incoming in cases:
        assert_absorb_matches(stored, incoming)
    # The stored entry stays unless the incoming past descends it.
    assert m.absorb(stored, (smaller,)) is stored
    assert m.absorb(stored, (sideways,)) is stored
    assert m.absorb(stored, (equal_past,)) is stored
    assert m.absorb(stored, (larger,)) == (larger, s_b)
    assert m.absorb(stored, (same_clock,)) == (same_clock, s_b)
    # Stored's own entry object, alone or in a new tuple, changes nothing.
    assert m.absorb(stored, (s_a,)) is stored
    assert m.absorb(stored, (tuple(s_b),)) is stored
    assert m.absorb(stored, (below,)) is stored
    # A new entry goes in at its place by dot, and drops what it covers.
    assert m.absorb(stored, (above_both,)) == (above_both,)
    assert m.absorb(stored, (above_one,)) == (above_one, s_b)
    assert m.absorb(stored, (beside,)) == (s_a, s_b, beside)
    assert m.absorb((), (beside,)) == (beside,)
    assert m.absorb((), (beside,))[0] is beside


def test_absorb_of_a_covered_entry_whose_past_covers_stored_entries():
    # Only a hand builds it: (B,1)'s past holds the incoming (C,1), and the
    # incoming past holds (A,2).  Both drop; (B,1) alone stays.
    held_a, held_b = (dvv("A", 2), sibling(0)), (dvv("B", 1, C=1), sibling(1))
    stored = MECHANISM.merge((held_a, held_b), ())
    incoming = ((dvv("C", 1, A=2), sibling(2)),)
    assert assert_absorb_matches(stored, incoming) == (held_b,)


def test_absorb_into_an_empty_state_and_of_empty_and_multi_entry_states():
    first, second = (dvv("A", 1), sibling(0)), (dvv("B", 1), sibling(1))
    later = (dvv("A", 2, A=1, B=1), sibling(2))
    assert assert_absorb_matches((), (first,)) == (first,)
    assert assert_absorb_matches((), ()) == ()
    stored = MECHANISM.merge((first,), (second,))
    assert assert_absorb_matches(stored, ()) == stored
    assert assert_absorb_matches(stored, (second, later)) == (later,)
    assert assert_absorb_matches(stored, (later, first)) == (later,)


# --------------------------------------------------------------------------- #
# write: the paper's update + discard
# --------------------------------------------------------------------------- #
def reference_write(state, context: VersionVector, written: Sibling,
                    server_id: str) -> tuple:
    """The write as ``src/`` wrote it before: ``update`` mints one past the
    largest counter of ``server_id`` in the context, the stored dots and the
    stored pasts; ``discard`` keeps the clocks the context has not seen."""
    clocks = [clock for clock, _ in state]
    top = context.get(server_id)
    for clock in clocks:
        if clock.dot.actor == server_id:
            top = max(top, clock.dot.counter)
        top = max(top, clock.causal_past.get(server_id))
    kept = {id(clock) for clock in discard(clocks, context)}
    new_clock = DottedVersionVector(Dot(server_id, top + 1), context)
    return tuple(entry for entry in state if id(entry[0]) in kept) + ((new_clock, written),)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=30))
def test_write_equals_update_and_discard_on_reachable_states(steps):
    trace = replay(steps)
    for state in [MECHANISM.empty_state()] + trace.reached:
        for context in trace.contexts[-4:] + [MECHANISM.read(state).context]:
            for server in SERVERS:
                written = sibling(1000)
                assert MECHANISM.write(state, context, written, server) == \
                    reference_write(state, context, written, server)
