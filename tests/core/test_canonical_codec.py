"""The canonical-bytes layer's two hard invariants, pinned and property-tested.

1. **Byte identity**: the memoized canonical encoding is byte-identical to the
   pre-refactor format — checked against ``golden_clock_encodings.json``
   (generated from the encoders as they were *before* the canonical-bytes
   layer existed) for both the core serialization codec and the wire value
   codec.
2. **Cache correctness**: after any sequence of mutation-shaped operations
   (which all return new objects), the memoized encoding of every reachable
   clock equals a from-scratch recompute.

Plus the supporting guarantees the layer relies on: strict immutability of
every canonical clock type, and actor-string interning on the decode paths.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import Sibling, available, create
from repro.clocks.vve import DottedVVE, VersionVectorWithExceptions
from repro.core import (
    CausalHistory,
    DVVSet,
    Dot,
    DottedVersionVector,
    VersionVector,
    codec,
    serialization,
)
from repro.core.dvv import join as dvv_join, sync as dvv_sync, update as dvv_update
from repro.network import wire

from canonical_cases import GOLDEN_PATH, SERIALIZATION_KINDS, build_cases

GOLDEN = json.loads(GOLDEN_PATH.read_text())

ACTORS = ["A", "B", "C"]


def wire_hex(value) -> str:
    buf = bytearray()
    wire._encode_value(value, buf)
    return bytes(buf).hex()


def cold_bytes(clock) -> bytes:
    """A from-scratch recompute, bypassing the instance memo."""
    return codec._ENCODERS[type(clock)](clock)


def assert_memo_consistent(clock) -> None:
    encoded = codec.canonical_bytes(clock)
    assert encoded == cold_bytes(clock)
    assert clock._encoded is encoded
    # A second read serves the identical object from the memo slot.
    assert codec.canonical_bytes(clock) is encoded


# --------------------------------------------------------------------------- #
# Golden byte fixtures (pre-refactor encodings, bit for bit)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,kind,value",
                         build_cases(), ids=[c[0] for c in build_cases()])
def test_wire_bytes_match_pre_refactor_golden(name, kind, value):
    assert wire_hex(value) == GOLDEN[name]["wire"], (
        f"{name}: wire encoding diverged from the pre-refactor capture")


@pytest.mark.parametrize(
    "name,kind,value",
    [c for c in build_cases() if c[1] in SERIALIZATION_KINDS],
    ids=[c[0] for c in build_cases() if c[1] in SERIALIZATION_KINDS])
def test_serialization_bytes_match_pre_refactor_golden(name, kind, value):
    assert serialization.encode(value).hex() == GOLDEN[name]["serialization"], (
        f"{name}: canonical encoding diverged from the pre-refactor capture")


def test_golden_cases_cover_every_canonical_type():
    covered = {type(value) for _, _, value in build_cases()}
    assert {VersionVector, DottedVersionVector, CausalHistory, DVVSet,
            VersionVectorWithExceptions, DottedVVE} <= covered


# --------------------------------------------------------------------------- #
# Memoization semantics
# --------------------------------------------------------------------------- #
def test_encoding_is_memoized_on_the_instance():
    vv = VersionVector({"A": 3, "B": 1})
    codec.reset_codec_stats()
    first = codec.canonical_bytes(vv)
    second = codec.canonical_bytes(vv)
    assert first is second
    stats = codec.codec_stats()
    assert stats["encode_misses"] == 1
    assert stats["encode_hits"] == 1


def test_unsupported_types_still_raise_serialization_error():
    from repro.core.exceptions import SerializationError

    with pytest.raises(SerializationError):
        serialization.encode("not a clock")
    with pytest.raises(SerializationError):
        codec.canonical_bytes(object())


def test_fingerprint_counters_stay_at_zero_after_a_cluster_run():
    """The e2e benchmark's ``codec.fingerprint_hit_ratio`` indexes these keys,
    so they must exist even though nothing counts them."""
    from repro.kvstore import SimulatedCluster

    cluster = SimulatedCluster(create("dvv"), server_ids=("n1", "n2", "n3"),
                               anti_entropy_interval_ms=None, seed=1)
    codec.reset_codec_stats()
    for index, client_id in enumerate(("alice", "bob")):
        cluster.client(client_id).put("k", f"v{index}", lambda result: None)
    cluster.drain()
    stats = codec.codec_stats()
    assert stats["encode_hits"] + stats["encode_misses"] > 0
    assert stats["fingerprint_hits"] == stats["fingerprint_misses"] == 0


def test_encoded_size_is_a_cache_read():
    clock = DVVSet((("A", 2, ("x",)),), ())
    size = serialization.encoded_size(clock)
    codec.reset_codec_stats()
    assert serialization.encoded_size(clock) == size
    assert codec.codec_stats()["encode_misses"] == 0


# --------------------------------------------------------------------------- #
# Strict immutability
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("clock", [
    VersionVector({"A": 1}),
    DottedVersionVector(Dot("A", 2), VersionVector({"B": 1})),
    CausalHistory(Dot("A", 1), [Dot("B", 1)]),
    DVVSet((("A", 1, ("v",)),), ()),
    VersionVectorWithExceptions({"A": 3}, [Dot("A", 2)]),
    DottedVVE(Dot("B", 1), VersionVectorWithExceptions({"A": 1})),
], ids=lambda c: type(c).__name__)
def test_canonical_clocks_are_strictly_immutable(clock):
    with pytest.raises(AttributeError):
        clock.anything = 1
    with pytest.raises(AttributeError):
        clock._encoded = b"forged"
    with pytest.raises(AttributeError):
        del clock._encoded


# --------------------------------------------------------------------------- #
# Hypothesis: memo == cold recompute after every mutation path
# --------------------------------------------------------------------------- #
def version_vectors(max_counter: int = 6) -> st.SearchStrategy[VersionVector]:
    return st.dictionaries(
        st.sampled_from(ACTORS),
        st.integers(min_value=0, max_value=max_counter),
        max_size=3,
    ).map(VersionVector)


def some_dots(max_counter: int = 6):
    return st.builds(Dot, st.sampled_from(ACTORS),
                     st.integers(min_value=1, max_value=max_counter))


@settings(max_examples=60, deadline=None)
@given(vv=version_vectors(), ops=st.lists(
    st.tuples(st.sampled_from(["increment", "merge", "with_entry", "without"]),
              st.sampled_from(ACTORS), st.integers(min_value=0, max_value=6)),
    max_size=6))
def test_version_vector_ops_keep_memo_consistent(vv, ops):
    for op, actor, counter in ops:
        assert_memo_consistent(vv)
        if op == "increment":
            vv = vv.increment(actor)
        elif op == "merge":
            vv = vv.merge(VersionVector({actor: counter or 1}))
        elif op == "with_entry":
            vv = vv.with_entry(actor, counter)
        else:
            vv = vv.without([actor])
    assert_memo_consistent(vv)


@settings(max_examples=60, deadline=None)
@given(contexts=st.lists(version_vectors(), min_size=1, max_size=4),
       servers=st.lists(st.sampled_from(["S0", "S1"]), min_size=1, max_size=4))
def test_dvv_kernel_ops_keep_memo_consistent(contexts, servers):
    stored = []
    for context, server in zip(contexts, servers * len(contexts)):
        clock = dvv_update(context, stored, server)
        assert_memo_consistent(clock)
        stored = dvv_sync(stored, [clock])
        for survivor in stored:
            assert_memo_consistent(survivor)
    join_vv = dvv_join(stored)
    assert_memo_consistent(join_vv)


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(
    st.tuples(st.sampled_from(["S0", "S1"]), st.text(min_size=1, max_size=4)),
    min_size=1, max_size=6))
def test_dvvset_ops_keep_memo_consistent(writes):
    stored = DVVSet.empty()
    for server, value in writes:
        incoming = DVVSet.new_with_context(stored.join(), value)
        stored = incoming.update(stored, server)
        assert_memo_consistent(stored)
        assert_memo_consistent(stored.sync(stored))
        assert_memo_consistent(stored.join())


@settings(max_examples=60, deadline=None)
@given(events=st.lists(some_dots(max_counter=30), min_size=0, max_size=6,
                       unique=True))
def test_causal_history_ops_keep_memo_consistent(events):
    history = CausalHistory.empty()
    for index, dot in enumerate(events):
        if dot in history.events():
            continue
        history = history.record_event(dot)
        assert_memo_consistent(history)
        if index % 2:
            history = history.merge(CausalHistory(None, [dot]))
            assert_memo_consistent(history)


@settings(max_examples=60, deadline=None)
@given(added=st.lists(some_dots(), max_size=6),
       merged=st.lists(some_dots(), max_size=4))
def test_vve_ops_keep_memo_consistent(added, merged):
    vve = VersionVectorWithExceptions.empty()
    for dot in added:
        vve = vve.add_dot(dot)
        assert_memo_consistent(vve)
    other = VersionVectorWithExceptions.from_dots(merged)
    assert_memo_consistent(other)
    union = vve.merge(other)
    assert_memo_consistent(union)
    dotted = DottedVVE(union.next_dot("A"), union)
    assert_memo_consistent(dotted)


def _walk_canonical(value, out):
    """Collect every canonical-typed object reachable inside ``value``."""
    if codec.is_canonical_type(value):
        out.append(value)
    if isinstance(value, DottedVersionVector):
        out.append(value.causal_past)
    elif isinstance(value, DottedVVE):
        _walk_canonical(value.causal_past, out)
    elif isinstance(value, VersionVectorWithExceptions):
        out.append(value.base)
    elif isinstance(value, DVVSet):
        for _, _, values in value.entries:
            for item in values:
                _walk_canonical(item, out)
        for item in value.anonymous:
            _walk_canonical(item, out)
    elif isinstance(value, (list, tuple, frozenset)):
        for item in value:
            _walk_canonical(item, out)
    elif isinstance(value, dict):
        for item in value.values():
            _walk_canonical(item, out)


@pytest.mark.parametrize("mechanism_name", sorted(available()))
@settings(max_examples=20, deadline=None)
@given(trace=st.lists(
    st.tuples(st.sampled_from(["write", "merge"]),
              st.sampled_from(["S0", "S1"]),
              st.booleans()),
    min_size=1, max_size=8))
def test_mechanism_traces_keep_memo_consistent(mechanism_name, trace):
    """Every clock reachable from any mechanism state stays memo-consistent
    across update (write), sync/merge, join (read context) and prune paths."""
    mechanism = create(mechanism_name)
    replicas = {"S0": mechanism.empty_state(), "S1": mechanism.empty_state()}
    seq = 0
    for op, server, stale in trace:
        if op == "write":
            seq += 1
            read = mechanism.read(replicas[server])
            context = mechanism.empty_context() if stale else read.context
            sibling = Sibling(value=f"v{seq}", origin_dot=Dot("oracle", seq),
                              writer="c0")
            replicas[server] = mechanism.write(
                replicas[server], context, sibling, server, "c0")
        else:
            merged = mechanism.merge(replicas["S0"], replicas["S1"])
            replicas["S0"] = replicas["S1"] = merged
        for state in replicas.values():
            mechanism.metadata_bytes(state)  # exercise the size-cache path
            reachable = []
            _walk_canonical(state, reachable)
            _walk_canonical(mechanism.read(state).context, reachable)
            for clock in reachable:
                assert_memo_consistent(clock)


# --------------------------------------------------------------------------- #
# Actor interning on decode paths
# --------------------------------------------------------------------------- #
def test_serialization_decode_interns_actor_ids():
    actor = "inter" + "ned-node-id"  # dodge compile-time interning of literals
    vv = VersionVector({actor: 3})
    decoded_a = serialization.decode(serialization.encode(vv))
    decoded_b = serialization.decode(serialization.encode(vv))
    actors_a = list(decoded_a.entries())
    actors_b = list(decoded_b.entries())
    assert actors_a[0] is actors_b[0]


def test_wire_decode_interns_actor_ids():
    actor = "wire" + "-actor-id"
    clock = DottedVersionVector(Dot(actor, 2), VersionVector({actor: 1}))
    buf = bytearray()
    wire._encode_value(clock, buf)
    decoded, _ = wire._decode_value(bytes(buf), 0, None)
    assert decoded.dot.actor is next(iter(decoded.causal_past.entries()))


# --------------------------------------------------------------------------- #
# Sibling-set fingerprint memo
# --------------------------------------------------------------------------- #
def test_sibling_set_fingerprint_memoizes_and_matches_cold():
    dots = (Dot("A", 1), Dot("B", 4))
    codec.clear_state_fingerprint_cache()
    codec.reset_codec_stats()
    first = codec.sibling_set_fingerprint(dots)
    second = codec.sibling_set_fingerprint(dots)
    assert first == second
    assert first == hashlib.sha256(codec.sibling_set_material(dots)).digest()
    assert first == hashlib.sha256(b"A:1;B:4").digest()  # pinned material
    stats = codec.codec_stats()
    assert stats["state_fp_misses"] == 1
    assert stats["state_fp_hits"] == 1
