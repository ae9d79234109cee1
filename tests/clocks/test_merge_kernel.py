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
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import DVVMechanism, Sibling
from repro.core import Dot, DottedVersionVector, VersionVector
from repro.core.dvv import sync as dvv_sync

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
    return Sibling(value=f"v{index}", origin_dot=Dot("writer", index + 1),
                   writer="writer")


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


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=40))
def test_kernel_equals_pairwise_on_write_merge_traces(steps):
    m = MECHANISM
    replicas = {server: m.empty_state() for server in SERVERS}
    contexts = [m.empty_context()]      # every context any read ever returned
    writes = 0
    for step in steps:
        if step[0] == "write":
            _, server, kind, pick = step
            fresh = m.read(replicas[server]).context
            contexts.append(fresh)
            context = {"fresh": fresh, "blind": m.empty_context(),
                       "stale": contexts[pick % len(contexts)]}[kind]
            replicas[server] = m.write(replicas[server], context,
                                       sibling(writes), server, "writer")
            writes += 1
        else:
            _, source, target = step
            assert_kernel_matches(replicas[source], replicas[target])
            replicas[target] = m.merge(replicas[source], replicas[target])
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
