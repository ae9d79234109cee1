"""``DVVSetMechanism``'s bookkeeping is counted from the entries, not built.

``metadata_bytes``, ``is_empty`` and ``siblings`` read a DVVSet's entries
directly.  Their reference is the formula each replaced — the join's encoded
size plus two bytes per live value, ``size() == 0`` and a copy of
``values()`` — checked here on states the mechanism reaches through
``write`` / ``merge`` and on hand-built sets at the encoding's edges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import DVVSetMechanism, Sibling
from repro.core import DVVSet, Dot, VersionVector
from repro.core.serialization import encoded_size

MECHANISM = DVVSetMechanism()
SERVERS = ["n1", "n2", "n3"]


def reference_metadata_bytes(state: DVVSet) -> int:
    return encoded_size(state.join()) + 2 * state.size()


def assert_counted_like_the_reference(state: DVVSet) -> None:
    assert MECHANISM.metadata_bytes(state) == reference_metadata_bytes(state)
    assert MECHANISM.is_empty(state) == (state.size() == 0)
    first, second = MECHANISM.siblings(state), MECHANISM.siblings(state)
    assert first == list(state.values())
    assert first is not second


def sibling(client: str, seq: int) -> Sibling:
    return Sibling(value=f"{client}:v{seq}", origin_dot=Dot(client, seq))


# One step on a three-replica key: a client reads replica ``source`` (or
# writes blind) and writes through ``server`` into replica ``target``, or
# replica ``target`` merges replica ``source``'s state.
steps = st.tuples(
    st.sampled_from(["write", "blind_write", "merge"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(SERVERS),
)


@settings(max_examples=80, deadline=None)
@given(trace=st.lists(steps, max_size=14))
def test_states_reached_by_write_and_merge_count_like_the_reference(trace):
    replicas = [MECHANISM.empty_state()] * 3
    assert_counted_like_the_reference(replicas[0])
    for seq, (op, target, source, server) in enumerate(trace, start=1):
        if op == "merge":
            replicas[target] = MECHANISM.merge(replicas[target], replicas[source])
        else:
            context = (MECHANISM.empty_context() if op == "blind_write"
                       else MECHANISM.read(replicas[source]).context)
            replicas[target] = MECHANISM.write(
                replicas[target], context, sibling(f"c{source}", seq), server)
        assert_counted_like_the_reference(replicas[target])


LONG_ACTOR = "r" * 130  # a two-byte length varint
HAND_BUILT = {
    "empty": DVVSet.empty(),
    "anonymous only": DVVSet((), ("a", "b")),
    "counter 0, no values": DVVSet([("n1", 0, ())]),
    "counter 0 beside a live entry": DVVSet([("n1", 0, ()), ("n2", 3, ("x",))]),
    "entries holding no values": DVVSet([("n1", 4, ()), ("n2", 9, ())]),
    "non-ASCII actor": DVVSet([("nœud-é", 2, ("x", "y"))]),
    "actor of 130 bytes": DVVSet([(LONG_ACTOR, 1, ("x",))]),
    "actor of 127 bytes": DVVSet([("s" * 127, 1, ())]),
    "counter 127": DVVSet([("n1", 127, ("x",))]),
    "counter 128": DVVSet([("n1", 128, ("x",))]),
    "counter 2**21": DVVSet([("n1", 2 ** 21, ("x", "y", "z"))]),
    "counter 2**40": DVVSet([("n1", 2 ** 40, ())], ("anon",)),
    "mixed": DVVSet(
        [("n1", 0, ()), ("nœud", 128, ("p",)), (LONG_ACTOR, 2 ** 40, ("q", "r")),
         ("n3", 5, ())],
        ("anon",)),
    "130 actors": DVVSet([(f"n{i}", i + 1, ()) for i in range(130)]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_sets_count_like_the_reference(name):
    assert_counted_like_the_reference(HAND_BUILT[name])


def test_zero_counters_are_not_counted():
    """The join's vector drops a zero counter, so its actor costs nothing."""
    with_zero = DVVSet([("n1", 0, ()), ("n2", 3, ("x",))])
    without = DVVSet([("n2", 3, ("x",))])
    assert MECHANISM.metadata_bytes(with_zero) == MECHANISM.metadata_bytes(without)
    assert with_zero.join() == VersionVector({"n2": 3})
