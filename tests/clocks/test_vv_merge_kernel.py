"""The version-vector merge kernel equals the pairwise merges it replaced.

``ClientVVMechanism.merge`` and ``ServerVVMechanism.merge`` drop repeated
``(clock, origin dot)`` pairs and then keep the siblings no other sibling's
vector dominates.  The survivors come from
``repro.core.version_vector.undominated``.  One pass finds every sibling that
alone holds some actor's largest counter, and only the rest are compared
pairwise.  The definitions they must agree with are the merges ``src/``
shipped before that kernel, kept here verbatim as references
(:func:`reference_client_vv_merge`, :func:`reference_server_vv_merge`).  They
are compared on result, order and object identity, on

* states reached by random write / merge traces over three replicas and many
  client ids, with fresh, stale and blind contexts, under ``client_vv``, a
  pruned ``client_vv`` and ``server_vv``;
* arbitrary entry lists: twins (equal clocks, different origins), duplicates
  within and across both inputs, empty vectors;
* the named corner cases, spelled out.

``ClientVVMechanism.absorb`` folds a state into a merge result comparing only
the entries it adds.  It is held to the same reference merge, on the same
checks, with merge results the random traces reach as the stored side and
incoming lists drawn from every entry those traces produced, their copies,
twins, empty vectors and ``stored``'s own objects.

The joins that ``read`` and ``server_vv``'s ``write`` build with
``repro.core.version_vector.ceiling`` are checked against the fold of
``VersionVector.merge`` they replaced.
"""

from __future__ import annotations

from functools import reduce
from typing import List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import (
    ClientVVMechanism,
    PrunedClientVVMechanism,
    ServerVVMechanism,
    Sibling,
)
from repro.clocks.client_vv import version_order
from repro.core import Dot, VersionVector
from repro.core.version_vector import ceiling, undominated

SERVERS = ["A", "B", "C"]
CLIENTS = [f"client-{index}" for index in range(12)]

Entry = Tuple[VersionVector, Sibling]


# --------------------------------------------------------------------------- #
# The references: the merges the kernel replaced, verbatim
# --------------------------------------------------------------------------- #
def reference_client_vv_merge(state_a, state_b):
    combined: List[Tuple[VersionVector, Sibling]] = []
    seen = set()
    for clock, sibling in state_a + state_b:
        key = (clock, sibling.origin_dot)
        if key in seen:
            continue
        seen.add(key)
        combined.append((clock, sibling))
    survivors = tuple(
        (clock, sibling) for clock, sibling in combined
        if not any(other.dominates(clock) for other, _ in combined)
    )
    return tuple(sorted(survivors, key=lambda item: (sorted(item[0].items()), item[1].origin_dot)))


def reference_server_vv_merge(state_a, state_b):
    combined: List[Tuple[VersionVector, Sibling]] = []
    for clock, sibling in state_a + state_b:
        if any(clock == other and sibling.origin_dot == s.origin_dot
               for other, s in combined):
            continue
        combined.append((clock, sibling))
    survivors = [
        (clock, sibling) for clock, sibling in combined
        if not any(other.dominates(clock) for other, _ in combined)
    ]
    # Two distinct versions can carry the *same* vector (e.g. replicas that
    # coordinated writes independently); keep one deterministically.
    deduped: List[Tuple[VersionVector, Sibling]] = []
    seen_clocks = set()
    for clock, sibling in sorted(survivors, key=lambda item: (sorted(item[0].items()), item[1].origin_dot)):
        if clock in seen_clocks:
            continue
        seen_clocks.add(clock)
        deduped.append((clock, sibling))
    return tuple(deduped)


def reference_join(state) -> VersionVector:
    """The fold ``read`` and ``server_vv``'s ``write`` used before ``ceiling``."""
    context = VersionVector.empty()
    for clock, _ in state:
        context = context.merge(clock)
    return context


REFERENCES = {
    ClientVVMechanism: reference_client_vv_merge,
    PrunedClientVVMechanism: reference_client_vv_merge,
    ServerVVMechanism: reference_server_vv_merge,
}


def assert_identical(got: Sequence[Entry], expected: Sequence[Entry]) -> None:
    """Same survivors, same order, and the very same clock and sibling objects."""
    assert type(got) is tuple
    assert len(got) == len(expected)
    for (clock, sibling), (want_clock, want_sibling) in zip(got, expected):
        assert clock is want_clock
        assert sibling is want_sibling


def assert_merge_matches(mechanism, left: Sequence[Entry], right: Sequence[Entry]) -> None:
    reference = REFERENCES[type(mechanism)]
    assert_identical(mechanism.merge(tuple(left), tuple(right)),
                     reference(tuple(left), tuple(right)))


def sibling(index: int, writer: str = "writer", counter: int = 0) -> Sibling:
    return Sibling(value=f"v{index}", origin_dot=Dot(writer, counter or index + 1))


# --------------------------------------------------------------------------- #
# States the store can reach
# --------------------------------------------------------------------------- #
_STEP = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(SERVERS),
              st.sampled_from(CLIENTS),
              st.sampled_from(["fresh", "stale", "blind"]),
              st.integers(min_value=0, max_value=1 << 16)),
    st.tuples(st.just("merge"), st.sampled_from(SERVERS),
              st.sampled_from(SERVERS)),
)

MECHANISMS = [
    ClientVVMechanism,
    lambda: PrunedClientVVMechanism(3),
    ServerVVMechanism,
]


def replay(mechanism, steps) -> Tuple[list, list]:
    """Run the trace, checking every merge; returns every state it reached
    and the merge results among them."""
    m = mechanism
    replicas = {server: m.empty_state() for server in SERVERS}
    reached, merged = [], []
    contexts = [m.empty_context()]      # every context any read ever returned
    sequence = {client: 0 for client in CLIENTS}
    for step in steps:
        if step[0] == "write":
            _, server, client, kind, pick = step
            state = replicas[server]
            fresh = m.read(state).context
            assert fresh == reference_join(state)
            assert list(fresh.entries()) == list(reference_join(state).entries())
            contexts.append(fresh)
            context = {"fresh": fresh, "blind": m.empty_context(),
                       "stale": contexts[pick % len(contexts)]}[kind]
            sequence[client] += 1
            written = sibling(sum(sequence.values()), client, sequence[client])
            replicas[server] = m.write(state, context, written, server)
            reached.append(replicas[server])
            if isinstance(m, ServerVVMechanism):
                minted, _ = replicas[server][-1]
                assert minted == reference_join(state).merge(context).increment(server)
        else:
            _, source, target = step
            assert_merge_matches(m, replicas[source], replicas[target])
            replicas[target] = m.merge(replicas[source], replicas[target])
            reached.append(replicas[target])
            merged.append(replicas[target])
    for source in SERVERS:
        for target in SERVERS:
            assert_merge_matches(m, replicas[source], replicas[target])
    return reached, merged


@settings(max_examples=120, deadline=None)
@given(make=st.sampled_from(MECHANISMS),
       steps=st.lists(_STEP, min_size=1, max_size=40))
def test_kernel_equals_reference_on_write_merge_traces(make, steps):
    replay(make(), steps)


# --------------------------------------------------------------------------- #
# Entry lists only a hand could build
# --------------------------------------------------------------------------- #
_VECTORS = st.lists(
    st.dictionaries(st.sampled_from(SERVERS + CLIENTS[:2]),
                    st.integers(min_value=0, max_value=3), max_size=4),
    min_size=1, max_size=8)
_PICKS = st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                            st.integers(min_value=0, max_value=5)),
                  max_size=12)


@settings(max_examples=300, deadline=None)
@given(vectors=_VECTORS, left=_PICKS, right=_PICKS)
def test_kernel_equals_reference_on_arbitrary_entry_lists(vectors, left, right):
    # Equal dicts give equal but distinct vectors; reused picks give the very
    # same pair (a duplicate) or the same clock under another origin (a twin).
    clocks = [VersionVector(entries) for entries in vectors]
    siblings = [sibling(index, "w", index % 3 + 1) for index in range(6)]

    def entries(picks):
        return [(clocks[c % len(clocks)], siblings[s]) for c, s in picks]

    for make in (ClientVVMechanism, ServerVVMechanism):
        assert_merge_matches(make(), entries(left), entries(right))


@settings(max_examples=200, deadline=None)
@given(vectors=_VECTORS)
def test_undominated_equals_the_pairwise_definition(vectors):
    entries = [(VersionVector(entries), index) for index, entries in enumerate(vectors)]
    expected = [entry for entry in entries
                if not any(other.dominates(entry[0]) for other, _ in entries)]
    assert undominated(entries) == expected


@settings(max_examples=200, deadline=None)
@given(vectors=_VECTORS)
def test_ceiling_equals_the_merge_fold_in_value_and_actor_order(vectors):
    clocks = [VersionVector(entries) for entries in vectors]
    fold = reduce(VersionVector.merge, clocks, VersionVector.empty())
    top = ceiling(clocks)
    assert VersionVector(top) == fold
    assert list(top) == list(fold.entries())


def vv(**entries: int) -> VersionVector:
    return VersionVector(entries)


def test_twins_both_survive_and_fall_together():
    # Equal clocks, different origins: neither dominates the other, but one
    # strictly larger clock dominates both.
    twin_a, twin_b = (vv(A=1, B=1), sibling(0)), (vv(A=1, B=1), sibling(1))
    for make in (ClientVVMechanism, ServerVVMechanism):
        assert_merge_matches(make(), [twin_a], [twin_b])
        assert_merge_matches(make(), [twin_a, twin_b], [(vv(A=2, B=1), sibling(2))])
    assert len(ClientVVMechanism().merge((twin_a,), (twin_b,))) == 2
    assert len(ServerVVMechanism().merge((twin_a,), (twin_b,))) == 1


def test_entry_dominated_only_transitively_is_dropped():
    oldest, middle, newest = vv(A=1), vv(A=1, B=1), vv(A=1, B=1, C=1)
    entries = [(oldest, sibling(0)), (middle, sibling(1)), (newest, sibling(2))]
    for make in (ClientVVMechanism, ServerVVMechanism):
        assert_merge_matches(make(), entries[:2], entries[2:])
        assert_merge_matches(make(), entries[2:], entries[:2])
        merged = make().merge(tuple(entries[:2]), tuple(entries[2:]))
        assert [clock for clock, _ in merged] == [newest]


def test_empty_vectors_lose_to_anything_and_tie_with_each_other():
    empty_a, empty_b = (vv(), sibling(0)), (VersionVector.empty(), sibling(1))
    for make in (ClientVVMechanism, ServerVVMechanism):
        assert_merge_matches(make(), [empty_a], [empty_b])
        assert_merge_matches(make(), [empty_a, (vv(A=1), sibling(2))], [empty_b])
    assert len(ClientVVMechanism().merge((empty_a,), (empty_b,))) == 2


def test_duplicates_across_and_within_both_inputs_collapse_first_wins():
    shared = (vv(A=2, B=1), sibling(0))
    copy = (vv(A=2, B=1), sibling(0))           # equal pair, other objects
    left = [shared, (vv(B=2), sibling(1)), shared]
    right = [copy, (vv(B=2), sibling(1)), shared]
    for make in (ClientVVMechanism, ServerVVMechanism):
        assert_merge_matches(make(), left, right)
        assert_merge_matches(make(), right, left)
    merged = ClientVVMechanism().merge(tuple(left), tuple(right))
    assert len(merged) == 2
    assert any(clock is shared[0] for clock, _ in merged)


def test_merging_an_antichain_with_its_copy_compares_no_vectors(monkeypatch):
    """30 concurrent client writes over a 32-client context: every writer
    holds its own entry's largest counter, so the one pass decides them all."""
    m = ClientVVMechanism()
    clients = [f"client-{index}" for index in range(32)]
    context = VersionVector({client: 3 for client in clients})
    state = m.empty_state()
    for index, client in enumerate(clients[:30]):
        state = m.write(state, context, sibling(index, client, 4), "A")
    assert len(state) == 30
    copy = tuple((VersionVector(clock.entries()), stored) for clock, stored in state)
    expected_same = reference_client_vv_merge(state, state)
    expected_copy = reference_client_vv_merge(state, copy)

    calls = []
    dominates = VersionVector.dominates

    def counting(self, other):
        calls.append(other)
        return dominates(self, other)

    monkeypatch.setattr(VersionVector, "dominates", counting)
    assert_identical(m.merge(state, state), expected_same)
    assert_identical(m.merge(state, copy), expected_copy)
    assert calls == []
    # A superseded sibling is still found, by the pairwise check.
    newer = m.write(state, m.read(state).context, sibling(99, "client-0", 5), "A")
    assert len(m.merge(state, newer)) == 1
    assert calls


def test_hash_is_memoized_and_unchanged():
    clock = vv(A=3, B=1)
    assert clock._hash is None
    assert hash(clock) == hash(frozenset({"A": 3, "B": 1}.items()))
    assert clock._hash == hash(clock)
    assert hash(vv(B=1, A=3)) == hash(clock)


def test_sorted_entries_are_memoized_and_unchanged():
    clock = vv(B=1, A=3, C=2)
    assert clock._sorted is None
    assert list(clock.items()) == sorted({"A": 3, "B": 1, "C": 2}.items())
    assert clock.sorted_items() is clock._sorted is clock.sorted_items()
    assert version_order((clock, sibling(0)))[0] is clock._sorted


# --------------------------------------------------------------------------- #
# absorb: the merge into a merge result, comparing only what is fresh
# --------------------------------------------------------------------------- #
ABSORBING = [
    ClientVVMechanism,
    lambda: PrunedClientVVMechanism(3),
]


def assert_absorb_matches(mechanism, stored, incoming: Sequence[Entry]):
    """``absorb`` equals the reference merge, and returns ``stored`` itself
    when that merge changes nothing; returns the result."""
    got = mechanism.absorb(stored, tuple(incoming))
    assert_identical(got, reference_client_vv_merge(stored, tuple(incoming)))
    if got == stored:
        assert got is stored
    return got


def incoming_pool(stored, reached) -> List[Entry]:
    """Entries an incoming state can hold: every entry the trace produced
    (older and newer than ``stored``'s), ``stored``'s own objects in new
    tuples, equal copies, twins and empty vectors."""
    produced = [entry for state in reached for entry in state]
    pool = produced + [tuple(entry) for entry in stored]
    for index, (clock, stored_sibling) in enumerate(produced[:6]):
        pool.append((VersionVector(clock.entries()), stored_sibling))
        pool.append((clock, Sibling(stored_sibling.value, stored_sibling.origin_dot)))
        pool.append((clock, sibling(index, "twin", index + 1)))
    pool.append((VersionVector.empty(), sibling(0, "empty", 1)))
    pool.append((VersionVector(), sibling(1, "empty", 2)))
    return pool


@settings(max_examples=150, deadline=None)
@given(make=st.sampled_from(ABSORBING),
       steps=st.lists(_STEP, min_size=1, max_size=30),
       data=st.data())
def test_absorb_equals_merge_on_merge_results_of_traces(make, steps, data):
    m = make()
    reached, merged = replay(m, steps)
    stored = data.draw(st.sampled_from(merged + [m.merge(reached[-1], ())]))
    for _ in range(2):      # the second round absorbs into absorb's result
        pool = incoming_pool(stored, reached)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=16))
        stored = assert_absorb_matches(m, stored, [pool[pick] for pick in picks])


def test_absorb_named_cases():
    m = ClientVVMechanism()
    s_a, s_b = (vv(A=1), sibling(0, "A", 1)), (vv(B=2), sibling(1, "B", 2))
    stored = m.merge((s_b, s_a), ())
    older = (vv(A=1, C=1), sibling(2, "C", 1))      # above s_a
    newer = (vv(A=1, C=2), sibling(3, "C", 2))      # above older and s_a
    below = (vv(B=1), sibling(4, "B", 1))           # below s_b
    twin = (vv(B=2), sibling(5, "E", 1))            # s_b's clock, other origin
    empty = (vv(), sibling(6, "D", 1))              # below everything else
    copy = (vv(B=2), s_b[1])                        # s_b, as equal objects
    cases = [
        [older, newer], [newer, older],             # fresh above fresh
        [older], [below], [twin], [empty], [copy],
        [twin, twin, copy, copy, tuple(s_a)],       # duplicates and shared
        [below, empty, older, newer, twin, s_b, s_a],
        [],
    ]
    for incoming in cases:
        assert_absorb_matches(m, stored, incoming)
    assert [entry[1] for entry in m.absorb(stored, (older, newer))] == [newer[1], s_b[1]]
    assert m.absorb(stored, stored) is stored
    assert m.absorb(stored, (copy, below, empty)) is stored
