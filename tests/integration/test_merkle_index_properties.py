"""Property tests: the incremental Merkle index always matches a rebuild.

The incremental index subsystem's core invariant is that a node's
write-maintained hash tree is indistinguishable from one rebuilt from scratch
over its current storage — for **every** mutation path.  These tests drive
randomized churn with fault injection (crash-restart, wiped recovery,
partitions and heals, hint replay, Merkle-delta transfers, read repair, join
handoff) and after every step compare each live node's incremental root
digest against ``MerkleTree.for_node`` on the same storage.  Any write path
that forgets to go through the mutation listener — or any staleness bug in
the dirty-bucket bookkeeping — shows up as a digest mismatch at the first
checkpoint after it fires.

The index hashes a key only when something reads it, so a second property
drives writes, merges, drops, imports, flushes and reads in random order and
checks every read against a from-scratch tree, and every step against its
hashing budget.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import check_cluster
from repro.clocks import create
from repro.cluster import PartitionMap, QuorumConfig
from repro.kvstore import ClientSession, MerkleTree, SimulatedCluster
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.kvstore.protocol import SYNC_MESSAGE_TYPES
from repro.kvstore.protocol.anti_entropy import AntiEntropyEngine
from repro.kvstore.merkle_index import VnodeIndexSet
from repro.kvstore.server import StorageNode
from repro.network import FixedLatency

KEYS = ("alpha", "beta", "gamma", "delta")
SERVERS = ("n1", "n2", "n3")


def build_cluster(mechanism_name: str, seed: int, **kwargs) -> SimulatedCluster:
    kwargs.setdefault("server_ids", SERVERS)
    kwargs.setdefault("quorum", QuorumConfig(n=3, r=2, w=2))
    kwargs.setdefault("latency", FixedLatency(0.5))
    kwargs.setdefault("anti_entropy_interval_ms", None)
    kwargs.setdefault("hint_replay_interval_ms", 20.0)
    return SimulatedCluster(create(mechanism_name), seed=seed, **kwargs)


def assert_index_matches_rebuild(cluster: SimulatedCluster, context: str = "") -> None:
    """Every live node's incremental root digest equals a from-scratch rebuild."""
    for server_id, server in sorted(cluster.servers.items()):
        index = server.node.merkle_index
        rebuilt = MerkleTree.for_node(server.node,
                                      fanout=index.fanout, depth=index.depth)
        assert index.root_digest == rebuilt.root_digest, (
            f"{server_id}: incremental root diverged from rebuild ({context}); "
            f"index keys={index.keys()} storage keys={server.node.storage.keys()}"
        )


# --------------------------------------------------------------------------- #
# The live descent surface: what the Merkle exchange reads off the index
# --------------------------------------------------------------------------- #
FANOUT, DEPTH, PARTITIONS = 3, 2, 4
ALL_PATHS = [path for level in range(DEPTH + 1)
             for path in itertools.product(range(FANOUT), repeat=level)]

_KEY = st.sampled_from([f"key-{index}" for index in range(10)])
_SIDE = st.sampled_from(["left", "right"])
_STEP = st.one_of(
    st.tuples(st.just("put"), _SIDE, _KEY),
    st.tuples(st.just("merge"), _SIDE, _KEY),      # pull the other side's state
    st.tuples(st.just("handoff"), _SIDE, _KEY),    # ... with its fingerprint
    st.tuples(st.just("drop"), _SIDE, _KEY),
)


def ranged_node(node_id: str) -> Tuple[StorageNode, VnodeIndexSet]:
    """A ranged node and a small-tree index set wired to its vnodes.

    A 3-way tree puts several of ten keys in one bucket, where the node's
    own index, at the one tree shape every node uses, would not.  A key's
    fingerprint does not depend on the shape, so a handoff may ship either
    index's.
    """
    partition_map = PartitionMap(PARTITIONS)
    node = StorageNode(node_id, create("dvv"), partition_map=partition_map)
    index = VnodeIndexSet(node.mechanism, partition_map=partition_map,
                          fanout=FANOUT, depth=DEPTH)
    index.attach(node.storage)
    return node, index


def assert_descent_surface_matches_rebuild(node: StorageNode,
                                           ranges: VnodeIndexSet) -> None:
    """Every query the exchange makes, at every path of every range."""
    for partition_id in ranges.partition_ids():
        index = ranges.index_for(partition_id)
        index.flush()
        reference = MerkleTree.for_node(
            node, keys=node.storage.vnode_keys(partition_id),
            fanout=FANOUT, depth=DEPTH)
        for path in ALL_PATHS:
            assert index.digest_at(path) == reference.digest_at(path)
            if len(path) < DEPTH:
                assert index.child_digests(path) == reference.child_digests(path)
            else:
                live = index.bucket_fingerprints(path)
                assert live == reference.bucket_fingerprints(path)
                assert list(live) == sorted(live)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=30))
def test_live_descent_queries_equal_a_from_scratch_tree(steps):
    nodes = {"left": ranged_node("L"), "right": ranged_node("R")}
    writers = {side: ClientSession(f"writer-{side}") for side in nodes}
    for number, (action, side, key) in enumerate(steps):
        node, _index = nodes[side]
        other, other_index = nodes["right" if side == "left" else "left"]
        if action == "put":
            writer = writers[side]
            context = writer.absorb_read(key, node.local_read(key),
                                         node.mechanism.name)
            node.local_write(key, context, writer.prepare_write(key, number),
                             writer.client_id)
        elif action == "drop":
            node.storage.delete(key)
        elif other.storage.has_key(key):
            fingerprint = (other_index.fingerprint(key)
                           if action == "handoff" else None)
            node.ingest_handoff(key, other.state_of(key), fingerprint)
        for checked, ranges in nodes.values():
            assert_descent_surface_matches_rebuild(checked, ranges)


# --------------------------------------------------------------------------- #
# Hash on read: mutations are recorded, flushes and reads hash them
# --------------------------------------------------------------------------- #
FEW_KEYS = ["key-0", "key-1"]   # few keys: steps pile onto each one
LEAF_PATHS = [path for path in ALL_PATHS if len(path) == DEPTH]
#: Key-less steps (bucket read, dirty count, flush) ignore the drawn key.
_LAZY_STEP = st.tuples(
    st.sampled_from(["put", "merge", "handoff", "import", "drop",
                     "fingerprint", "buckets", "dirty", "flush"]),
    _SIDE, st.sampled_from(FEW_KEYS))


def reference_trees(node: StorageNode) -> dict:
    """A from-scratch tree per range over the node's current storage."""
    return {partition_id: MerkleTree.for_node(
                node, keys=node.storage.vnode_keys(partition_id),
                fanout=FANOUT, depth=DEPTH)
            for partition_id in node.storage.vnode_ids()}


def keys_hashed(node: StorageNode, index: VnodeIndexSet) -> int:
    """Keys hashed by the small index and by the node's own, which only a
    handoff's fingerprint comparison reads."""
    return index.counters["keys_hashed"] + node.stats["keys_hashed"]


def assert_hash_free_reads_match(node: StorageNode, index: VnodeIndexSet,
                                 flushed: dict) -> None:
    """Reads that hash nothing: key listing and digests as of the last flush."""
    hashed = keys_hashed(node, index)
    assert index.keys() == node.storage.keys()
    assert index.key_count == len(node.storage)
    for partition_id, reference in flushed.items():
        range_index = index.index_for(partition_id)
        assert range_index.key_count == node.storage.vnode_len(partition_id)
        for path in ALL_PATHS:
            assert range_index.digest_at(path) == reference.digest_at(path)
            if len(path) < DEPTH:
                assert range_index.child_digests(path) == \
                    reference.child_digests(path)
    assert keys_hashed(node, index) == hashed


def changed_leaves(current: dict, flushed: dict) -> int:
    """Leaf buckets whose contents moved since the last flush."""
    return sum(current[partition_id].bucket_fingerprints(path)
               != flushed[partition_id].bucket_fingerprints(path)
               for partition_id in current for path in LEAF_PATHS)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_LAZY_STEP, min_size=1, max_size=30))
@example(steps=[("put", "left", "key-0"), ("put", "right", "key-0"),
                ("import", "left", "key-0"), ("flush", "left", "key-0")])
def test_hash_on_read_index_answers_every_read_like_a_from_scratch_tree(steps):
    """Random writes, merges, drops, imports, flushes and reads.

    The reads that hash nothing are checked after every step.  A read that
    hashes — one key's fingerprint, every leaf bucket's fingerprints, the
    dirty-bucket count — is checked against trees built from scratch over
    current storage when the step draws it.  A write, merge, import or drop
    hashes nothing, a handoff or a fingerprint read at most one key, and a
    bucket read, dirty count or flush at most each key mutated since the
    last of them, once.  A flush re-hashes only buckets whose contents moved
    (or that lost a key on the way).
    """
    nodes = {"left": ranged_node("L"), "right": ranged_node("R")}
    writers = {side: ClientSession(f"writer-{side}") for side in nodes}
    flushed = {side: reference_trees(node) for side, (node, _) in nodes.items()}
    mutated = {side: set() for side in nodes}
    dropped = {side: set() for side in nodes}
    for number, (action, side, key) in enumerate(steps):
        node, index = nodes[side]
        other, other_index = nodes["right" if side == "left" else "left"]
        hashed = keys_hashed(node, index)
        budget = 0
        if action in ("buckets", "dirty", "flush"):
            budget = len(mutated[side])
            mutated[side].clear()
            current = reference_trees(node)
        if action == "fingerprint":
            budget = 1
            mutated[side].discard(key)
            expected = (MerkleTree.for_node(node, keys=[key]).fingerprint(key)
                        if node.storage.has_key(key) else None)
            assert index.fingerprint(key) == expected
        elif action == "buckets":
            for partition_id, reference in current.items():
                range_index = index.index_for(partition_id)
                for path in LEAF_PATHS:
                    live = range_index.bucket_fingerprints(path)
                    assert live == reference.bucket_fingerprints(path)
                    assert list(live) == sorted(live)
        elif action == "dirty":
            assert index.dirty_buckets() >= changed_leaves(current,
                                                           flushed[side])
        elif action == "flush":
            assert index.flush() <= (changed_leaves(current, flushed[side])
                                     + len(dropped[side]))
            assert index.dirty_buckets() == 0
            flushed[side] = current
            dropped[side].clear()
        elif action == "put":
            writer = writers[side]
            context = writer.absorb_read(key, node.local_read(key),
                                         node.mechanism.name)
            node.local_write(key, context, writer.prepare_write(key, number),
                             writer.client_id)
            mutated[side].add(key)
        elif action == "drop":
            node.storage.delete(key)
            dropped[side].add(key)
        elif other.storage.has_key(key):
            fingerprint = (other_index.fingerprint(key)
                           if action in ("handoff", "import") else None)
            if action == "import":     # adopt the sender's state and digest
                node.storage.put_state(key, other.state_of(key), fingerprint)
            else:
                node.ingest_handoff(key, other.state_of(key), fingerprint)
                mutated[side].add(key)
                budget = 1 if action == "handoff" else 0
        assert keys_hashed(node, index) - hashed <= budget
        for checked_side, (checked, ranges) in nodes.items():
            assert_hash_free_reads_match(checked, ranges, flushed[checked_side])


class TestIndexEqualsRebuildUnderChurn:
    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "causal_history"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_churn_with_fault_injection(self, mechanism_name, seed):
        cluster = build_cluster(mechanism_name, seed)
        rng = random.Random(seed * 6007 + sum(map(ord, mechanism_name)))
        clients = [cluster.client(f"c{index}") for index in range(3)]
        crashed = None
        counter = 0

        for step in range(40):
            action = rng.choice(
                ["put", "put", "put", "get", "partition", "heal",
                 "crash", "recover", "sync"]
            )
            if action == "put":
                client = rng.choice(clients)
                key = rng.choice(KEYS)
                counter += 1
                value = f"{client.client_id}-v{counter}"
                client.get(key, lambda _r, c=client, k=key, v=value: c.put(k, v))
            elif action == "get":
                rng.choice(clients).get(rng.choice(KEYS))
            elif action == "partition":
                loner = rng.choice(SERVERS)
                cluster.partitions.partition(
                    {loner}, {node for node in SERVERS if node != loner}
                )
            elif action == "heal":
                cluster.partitions.heal()
            elif action == "crash" and crashed is None:
                crashed = rng.choice(SERVERS)
                cluster.fail_node(crashed)
            elif action == "recover" and crashed is not None:
                # crash-restart (index rebuilt from surviving storage) or
                # disk wipe (index emptied with the disk)
                cluster.recover_node(crashed, wipe=rng.random() < 0.4)
                crashed = None
            elif action == "sync":
                cluster.run_anti_entropy_round(settle=False)
            cluster.run(until=cluster.simulation.now + rng.uniform(2.0, 10.0))
            assert_index_matches_rebuild(cluster, context=f"step {step}: {action}")

        cluster.partitions.heal()
        if crashed is not None:
            cluster.recover_node(crashed)
        cluster.drain()
        cluster.converge(max_rounds=40)
        assert cluster.is_converged()
        assert_index_matches_rebuild(cluster, context="after convergence")

    def test_hint_replay_to_wiped_node_keeps_index_current(self):
        """Hint replay repopulates a wiped disk *through the index listener*."""
        cluster = build_cluster("dvv", seed=11)
        client = cluster.client("writer")
        for key in KEYS:
            client.put(key, f"{key}-v1")
        cluster.run(until=cluster.simulation.now + 30.0)
        cluster.fail_node("n2")
        for key in KEYS:
            client.get(key, lambda _r, k=key: client.put(k, f"{k}-v2"))
        cluster.run(until=cluster.simulation.now + 30.0)
        cluster.recover_node("n2", wipe=True)
        assert_index_matches_rebuild(cluster, context="right after wipe")
        cluster.drain()
        assert cluster.servers["n2"].node.stats["hint_replays"] > 0
        assert_index_matches_rebuild(cluster, context="after hint replay")
        cluster.converge(max_rounds=40)
        assert_index_matches_rebuild(cluster, context="after convergence")

    def test_join_handoff_feeds_the_newcomers_index(self):
        """KEY_HANDOFF ingestion lands in the joiner's (fresh) index."""
        cluster = build_cluster("dvv", seed=13, hint_replay_interval_ms=None)
        client = cluster.client("writer")
        for index in range(12):
            client.put(f"key-{index}", f"v{index}")
        cluster.simulation.run_until_idle()
        handed_off = cluster.join_node("n4")
        cluster.simulation.run_until_idle()
        assert handed_off > 0
        assert cluster.servers["n4"].node.stats["handoffs"] > 0
        assert_index_matches_rebuild(cluster, context="after join handoff")

    def test_decommission_handoff_feeds_survivor_indexes(self):
        cluster = build_cluster("dvv", seed=17, hint_replay_interval_ms=None,
                                quorum=QuorumConfig(n=1, r=1, w=1))
        client = cluster.client("writer")
        for index in range(12):
            client.put(f"key-{index}", f"v{index}")
        cluster.simulation.run_until_idle()
        cluster.decommission_node("n2")
        cluster.simulation.run_until_idle()
        assert_index_matches_rebuild(cluster, context="after decommission")

    def test_read_repair_path_keeps_index_current(self):
        """Batched READ_REPAIR merges flow through the mutation listener."""
        cluster = build_cluster("dvv", seed=19, hint_replay_interval_ms=None,
                                quorum=QuorumConfig(n=3, r=3, w=1))
        client = cluster.client("writer")
        for key in KEYS:
            client.put(key, f"{key}-v1")
        cluster.run(until=cluster.simulation.now + 20.0)
        for key in KEYS:
            client.get(key)   # R=3 reads notice and repair stale replicas
        cluster.drain()
        assert_index_matches_rebuild(cluster, context="after read repair")


# --------------------------------------------------------------------------- #
# Unfrozen digests: the exchange reads trees that move under it
# --------------------------------------------------------------------------- #
MERKLE_TYPES = frozenset(
    value for value in SYNC_MESSAGE_TYPES if value.startswith("merkle"))


def run_exchanges_over_moving_trees(mechanism_name: str, injections: int = 100):
    """Divergence healed by exchanges while a write lands between every pair
    of exchange messages (a put is issued each time one is delivered)."""
    cluster = build_cluster(mechanism_name, seed=31,
                            anti_entropy_interval_ms=15.0,
                            hint_replay_interval_ms=None)
    clients = [cluster.client(f"c{index}") for index in range(3)]
    keys = [f"key-{index}" for index in range(6)]
    rng = random.Random(31)
    injected = 0

    def inject_before(handler):
        def on_message(message, now):
            nonlocal injected
            if message.msg_type.value in MERKLE_TYPES and injected < injections:
                injected += 1
                rng.choice(clients).put(rng.choice(keys), f"w{injected}",
                                        use_context=rng.random() < 0.7)
            return handler(message, now)
        return on_message

    for server in cluster.servers.values():
        server.protocol.on_message = inject_before(server.protocol.on_message)

    # Real divergence for the descents to chase: n3 misses a round of writes.
    cluster.fail_node("n3")
    for number, key in enumerate(keys * 2):
        clients[number % 3].put(key, f"seed-{number}")
    cluster.run(until=cluster.simulation.now + 30.0)
    cluster.recover_node("n3")
    deadline = cluster.simulation.now + 5000.0
    while injected < injections and cluster.simulation.now < deadline:
        cluster.run(until=cluster.simulation.now + 50.0)
    assert injected == injections
    cluster.converge(max_rounds=40)
    return cluster


@pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "causal_history"])
def test_exact_mechanisms_survive_writes_between_exchange_messages(mechanism_name):
    cluster = run_exchanges_over_moving_trees(mechanism_name)
    assert cluster.is_converged()
    assert cluster.merkle_stats.keys_transferred > 0
    report = check_cluster(cluster)
    assert report.total_lost_updates == 0
    assert report.total_false_concurrency == 0
    assert_index_matches_rebuild(cluster, context="after moving-tree exchanges")
    assert all(server.protocol.anti_entropy.sessions == {}
               for server in cluster.servers.values())


def test_server_vv_still_loses_updates_over_moving_trees():
    report = check_cluster(run_exchanges_over_moving_trees("server_vv"))
    assert report.total_lost_updates > 0


def test_asyncio_daemon_on_a_converged_cluster_builds_no_tree(monkeypatch):
    """Clean exchanges read roots off the live index: no ``MerkleTree`` is
    ever constructed and no session outlives its exchange."""
    built = []
    original = MerkleTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MerkleTree, "__init__", counting_init)

    clean_exchanges = []          # (its session id, sessions left behind)
    on_diff = AntiEntropyEngine.on_merkle_partition_diff

    def checking_on_diff(engine, message):
        on_diff(engine, message)
        if not message.payload["differing"]:
            clean_exchanges.append((message.payload["session"],
                                    dict(engine.sessions)))

    monkeypatch.setattr(AntiEntropyEngine, "on_merkle_partition_diff",
                        checking_on_diff)

    async def scenario():
        cluster = AsyncioCluster(create("dvv"), server_ids=SERVERS,
                                 anti_entropy_interval_ms=10.0)
        async with cluster:
            client = await cluster.client("writer")
            for index in range(30):
                await client.put(f"key-{index}", f"v{index}")
            await cluster.converge(timeout_s=10.0)
            loop = asyncio.get_running_loop()
            target = len(clean_exchanges) + 12
            deadline = loop.time() + 10.0
            while len(clean_exchanges) < target:
                assert loop.time() < deadline, "daemon made no clean exchanges"
                await asyncio.sleep(0.01)

    asyncio.run(scenario())
    assert built == []
    # A clean exchange's session is gone the moment its diff arrives; with
    # exchanges 10 ms apart and sub-ms round trips nothing else is open then
    # (a stalled machine may overlap two, so only "some" is asserted).
    assert all(session_id not in left for session_id, left in clean_exchanges)
    assert any(left == {} for _session_id, left in clean_exchanges)
