"""The side-channel oracle judges exactly like the carried one did.

Siblings and contexts used to carry ground-truth causal histories; now the
:class:`~repro.kvstore.write_log.WriteLog` rebuilds them from ``(origin dot,
origin dots read)`` pairs.  This suite keeps the old bookkeeping alive as a
test-local reference model — the history of a write is the union of the
histories of the siblings its context's read returned, plus its own dot — and
replays randomized multi-client traces (fresh, stale and blind writes) on both
the synchronous store and the simulated cluster, asserting

* ``write_log.history_of(dot)`` equals the reference history of every write;
* ``check_store`` / ``check_cluster`` reach the verdict the reference
  histories imply: exact mechanisms lose nothing, ``server_vv`` still loses
  updates and pruned client VVs still fabricate concurrency, same counts.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import pytest

from repro.analysis import check_cluster, check_store
from repro.clocks import Sibling, create
from repro.cluster import QuorumConfig
from repro.core import Dot
from repro.kvstore import ClientSession, SimulatedCluster, SyncReplicatedStore
from repro.kvstore.context import CausalContext
from repro.kvstore.write_log import WriteLog

MECHANISMS = ["dvv", "dvvset", "server_vv", "client_vv_pruned_5"]
EXACT = ("dvv", "dvvset")
KEYS = ("hot", "warm")
CLIENTS = 8


class ReferenceOracle:
    """Ground truth the old way: histories travel with what clients read."""

    def __init__(self) -> None:
        self.history: Dict[Dot, FrozenSet[Dot]] = {}
        #: context object -> union of the histories of the siblings it read
        #: (keyed by identity; the context is kept so the id stays unique).
        self._seen: Dict[int, Tuple[CausalContext, FrozenSet[Dot]]] = {}
        self.minted: List[Sibling] = []

    def watch(self, session: ClientSession) -> None:
        """Observe what ``session`` reads and which dots it mints."""
        absorb, prepare_write = session.absorb, session.prepare_write

        def absorbing(key, mechanism_context, read_dots, mechanism_name):
            context = absorb(key, mechanism_context, read_dots, mechanism_name)
            seen = frozenset().union(
                *(self.history[dot] for dot in context.read_dots))
            self._seen[id(context)] = (context, seen)
            return context

        def minting(key, value):
            sibling = prepare_write(key, value)
            self.minted.append(sibling)
            return sibling

        session.absorb = absorbing
        session.prepare_write = minting

    def wrote(self, context: Optional[CausalContext]) -> None:
        """The write minted last was issued with ``context`` (None = blind)."""
        dot = self.minted[-1].origin_dot
        seen = self._seen[id(context)][1] if context is not None else frozenset()
        self.history[dot] = seen | {dot}

    def verdict(self, log: WriteLog,
                survivors: Dict[str, Sequence[Sibling]]) -> Tuple[int, int]:
        """``(lost updates, falsely concurrent pairs)`` the reference implies."""
        history = self.history
        lost = false_pairs = 0
        for key in log.keys():
            records = log.for_key(key)
            surviving = sorted(s.origin_dot for s in survivors[key])
            for record in records:
                dot = record.origin_dot
                dominated = any(history[dot] < history[other.origin_dot]
                                for other in records)
                covered = any(dot in history[kept] for kept in surviving)
                session_superseded = any(
                    other.sibling.writer == record.sibling.writer
                    and other.origin_dot.counter > dot.counter
                    for other in records)
                if not (dominated or covered or session_superseded):
                    lost += 1
            for index, first in enumerate(surviving):
                for second in surviving[index + 1:]:
                    if (history[first] < history[second]
                            or history[first] > history[second]):
                        false_pairs += 1
        return lost, false_pairs


def assert_histories_match(log: WriteLog, oracle: ReferenceOracle) -> None:
    assert len(log) >= len(oracle.history) > 0
    for record in log:
        assert (log.history_of(record.origin_dot).events()
                == oracle.history[record.origin_dot]), record.origin_dot


def assert_expected_damage(mechanism_name: str, report) -> None:
    if mechanism_name in EXACT:
        assert report.is_correct
    elif mechanism_name == "server_vv":
        assert report.total_lost_updates > 0
    else:
        assert report.total_false_concurrency > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_sync_store_oracle_matches_reference(mechanism_name, seed):
    rng = random.Random(seed)
    servers = ("A", "B", "C")
    store = SyncReplicatedStore(create(mechanism_name), server_ids=servers)
    oracle = ReferenceOracle()
    sessions = [ClientSession(f"c{index}") for index in range(CLIENTS)]
    for session in sessions:
        oracle.watch(session)
    #: every context a (client, key) pair ever got, for stale writes
    contexts: Dict[Tuple[str, str], List[CausalContext]] = {}

    for step in range(240):
        session, key = rng.choice(sessions), rng.choice(KEYS)
        server = rng.choice(servers)
        roll = rng.random()
        if roll < 0.35:
            result = store.get(key, session, server_id=server)
            contexts.setdefault((session.client_id, key), []).append(result.context)
        elif roll < 0.90:
            held = contexts.get((session.client_id, key))
            kind = rng.random()
            if not held or kind < 0.2:
                context = None                      # blind
            elif kind < 0.5:
                context = rng.choice(held)          # stale: any earlier read
            else:
                context = held[-1]                  # fresh
            store.put(key, f"v{step}", session, context=context, server_id=server)
            oracle.wrote(context)
        else:
            source, target = rng.sample(servers, 2)
            store.sync_key(key, source, target)

    assert_histories_match(store.write_log, oracle)
    report = check_store(store)      # converges the replicas first
    survivors = {key: store.siblings(key, store.replicas_for(key)[0])
                 for key in store.write_log.keys()}
    assert ((report.total_lost_updates, report.total_false_concurrency)
            == oracle.verdict(store.write_log, survivors))
    assert_expected_damage(mechanism_name, report)


@pytest.mark.parametrize("mechanism_name", MECHANISMS)
def test_simulated_cluster_oracle_matches_reference(mechanism_name):
    rng = random.Random(11)
    cluster = SimulatedCluster(
        create(mechanism_name), server_ids=("A", "B", "C"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
        request_mode="async", seed=11)
    oracle = ReferenceOracle()
    clients = [cluster.client(f"c{index}") for index in range(CLIENTS)]
    for client in clients:
        oracle.watch(client.session)

    def issue(step: int) -> None:
        client, key = rng.choice(clients), rng.choice(KEYS)
        roll = rng.random()
        if roll < 0.4:
            client.get(key)
            return
        # The session's last context is whatever reply it absorbed last —
        # stale whenever another client's write was accepted since.
        use_context = roll < 0.85
        context = client.session.last_context(key) if use_context else None
        client.put(key, f"v{step}", use_context=use_context)
        oracle.wrote(context)

    # Ops arrive faster than a request completes, so clients overlap.
    for step in range(200):
        cluster.simulation.schedule_at(1.5 * (step + 1),
                                       lambda step=step: issue(step))
    cluster.run(until=600.0)
    cluster.converge()

    assert_histories_match(cluster.write_log, oracle)
    report = check_cluster(cluster)
    survivors = {}
    for key in cluster.write_log.keys():
        survivors[key] = next(
            siblings for server_id in sorted(cluster.servers)
            if (siblings := cluster.servers[server_id].node.siblings_of(key)))
    assert ((report.total_lost_updates, report.total_false_concurrency)
            == oracle.verdict(cluster.write_log, survivors))
    assert_expected_damage(mechanism_name, report)
