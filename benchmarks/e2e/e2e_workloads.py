"""Workload definitions and seed -> input generation for ``bench_e2e``.

Pure data and pure functions: nothing here imports :mod:`repro`, so the
program under test only ever sees the inputs generated from ``--seed``.

Two shapes of workload exist:

* ``requests`` — a closed loop of client PUT/GET operations (``hot_write``,
  ``hot_write_cvv``, ``wide_read``).  The whole op sequence — which driver
  task issues it, under which client identity, on which key, with or without
  causal context, with which value — is produced by :func:`generate_ops`
  before the timed section starts.
* ``rebuild`` — ``replica_rebuild``: wipe one replica, let one Merkle
  exchange restore it, repeat on a rotating victim (:func:`rebuild_rounds`).
  After each round a short closed-loop probe (same generator) checks that the
  rebuilt cluster serves requests and supplies the request-latency metrics.

Op counts are **fixed per repetition**, never derived from a duration:
per-key state grows with writes, so a fixed duration would hand a faster
build more growth and damp its own gain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

#: Concurrent driver tasks = requests in flight.  The sandbox has 2 cores and
#: a Riak-style client needs the reply's causal context before its next write
#: to the key, so the load is a closed loop of this width.
DRIVERS = 2

#: Cluster shape shared by every workload (Unix-domain sockets on the host).
SERVER_IDS = ("A", "B", "C")
QUORUM = {"n": 3, "r": 2, "w": 2, "sloppy": True}

#: Deadlines pinned far above the defaults (250 ms / 1000 ms).  At the
#: defaults a scheduler stall in the sandbox fires a replica deadline before
#: the replies already sitting in the socket buffer are read, which shows up
#: as ``quorum_unreachable`` on a handful of ops in some runs.  With these
#: values no run has failed an op, so a non-zero ``failed`` means a bug.
REPLICA_TIMEOUT_MS = 2000.0
REQUEST_TIMEOUT_MS = 5000.0

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 2012


@dataclass(frozen=True)
class Workload:
    """One named traffic shape.  Names are permanent; numbers are constants."""

    name: str
    mechanism: str
    why: str
    kind: str                      # "requests" | "rebuild"
    keys: int
    identities: int
    value_bytes: int
    put_fraction: float            # share of ops that are PUTs
    blind_fraction: float          # share of PUTs issued with use_context=False
    read_before_write: bool        # PUTs come as GET-then-PUT pairs (context)
    preload: bool                  # every key written once during set-up
    anti_entropy_ms: Optional[float]   # daemon cadence, None = daemon off
    ops: int                       # timed ops per repetition (requests kind)
    rounds: int = 0                # timed wipe/restore rounds (rebuild kind)
    probe_ops: int = 0             # closed-loop ops after each rebuild round
    smoke_keys: int = 0            # --smoke sizes (self-test, not measurement)
    smoke_ops: int = 0
    smoke_rounds: int = 0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="hot_write", mechanism="dvv", kind="requests",
        why=("8 hot keys, 90% PUT (25% blind), 32 client ids: hundreds of "
             "writes per key, so per-key state, sibling sets, clock "
             "decode/merge, storage apply and Merkle upkeep do the work"),
        keys=8, identities=32, value_bytes=64, put_fraction=0.9,
        blind_fraction=0.25, read_before_write=False, preload=False,
        anti_entropy_ms=100.0, ops=640, smoke_keys=8, smoke_ops=60),
    Workload(
        name="hot_write_cvv", mechanism="client_vv", kind="requests",
        why=("same traffic and seed as hot_write under client-id version "
             "vectors, the paper's baseline: metadata, wire bytes and "
             "latency here over hot_write is the paper's comparison"),
        keys=8, identities=32, value_bytes=64, put_fraction=0.9,
        blind_fraction=0.25, read_before_write=False, preload=False,
        anti_entropy_ms=100.0, ops=600, smoke_keys=8, smoke_ops=60),
    Workload(
        name="wide_read", mechanism="dvvset", kind="requests",
        why=("2000 preloaded keys, uniform, 90% GET: tiny states, so "
             "per-frame envelope codec, read quorum and background Merkle "
             "snapshots over many keys dominate; bypasses per-key growth"),
        keys=2000, identities=16, value_bytes=64, put_fraction=0.1,
        blind_fraction=0.0, read_before_write=True, preload=True,
        anti_entropy_ms=100.0, ops=4000, smoke_keys=60, smoke_ops=120),
    Workload(
        name="replica_rebuild", mechanism="dvvset", kind="rebuild",
        why=("3000 converged keys, daemon off: wipe a rotating replica and "
             "restore it with one Merkle exchange per round; bulk frames, "
             "local_merge and index rebuild with no coordinator at all"),
        keys=3000, identities=16, value_bytes=64, put_fraction=0.1,
        blind_fraction=0.0, read_before_write=True, preload=True,
        anti_entropy_ms=None, ops=0, rounds=6, probe_ops=200,
        smoke_keys=60, smoke_ops=0, smoke_rounds=2),
)}


class Op(NamedTuple):
    """One generated client operation."""

    identity: int          # index into the identity pool
    kind: str              # "put" | "get"
    key: str
    use_context: bool      # PUT only: send the session's causal context
    value: Optional[str]   # PUT only


def key_names(count: int) -> List[str]:
    return [f"key-{index:05d}" for index in range(count)]


def identity_names(count: int) -> List[str]:
    return [f"c{index:02d}" for index in range(count)]


def _value(rng: random.Random, tag: str, size: int) -> str:
    """A unique ``size``-byte value: a tag naming the op plus seeded filler."""
    filler = "%030x" % rng.getrandbits(120)
    return (tag + "-" + filler * (size // len(filler) + 1))[:size]


def preload_ops(spec: Workload, keys: int) -> List[List[Op]]:
    """Set-up writes: every key once, identities round-robin, per driver."""
    rng = random.Random(f"preload:{spec.value_bytes}")
    per_driver: List[List[Op]] = [[] for _ in range(DRIVERS)]
    for index, key in enumerate(key_names(keys)):
        driver = index % DRIVERS
        identity = _identity_for(driver, index // DRIVERS, spec.identities)
        per_driver[driver].append(Op(identity, "put", key, False,
                                     _value(rng, f"pre{index}", spec.value_bytes)))
    return per_driver


def _identity_for(driver: int, turn: int, identities: int) -> int:
    """The ``turn``-th identity of a driver's own slice of the identity pool.

    Identities are split between drivers (index mod DRIVERS) so one client
    session never has two requests in flight — sessions are sequential, as a
    real client's would be — while the number of client ids stays a workload
    parameter independent of concurrency.
    """
    own = max(1, identities // DRIVERS)
    return (turn % own) * DRIVERS + driver


#: Ops per deck: op kinds are dealt from shuffled decks of this many steps so
#: that every key sees the workload's exact PUT/GET/blind mix.
DECK = 40


def _deck(spec: Workload) -> List[str]:
    """One unshuffled deck of steps: "get", "put", "blind" or "pair".

    A "pair" is GET-then-PUT by one identity (``read_before_write``) and
    counts as two ops, so the deck holds fewer steps than ops in that case.
    """
    puts = round(DECK * spec.put_fraction)
    if spec.read_before_write:
        return ["pair"] * puts + ["get"] * (DECK - 2 * puts)
    blind = round(puts * spec.blind_fraction)
    return ["blind"] * blind + ["put"] * (puts - blind) + ["get"] * (DECK - puts)


def generate_ops(spec: Workload, seed: int, ops: int, keys: int,
                 tag: str = "op") -> List[List[Op]]:
    """The timed op sequence for ``seed``: one list of ops per driver task.

    Depends only on the seed and the traffic shape — not on the workload's
    name or mechanism — so ``hot_write`` and ``hot_write_cvv`` get identical
    traffic from the same seed.

    The seed decides orders, never amounts.  Keys come in shuffled passes
    over the whole key space, each key deals its op kinds from its own
    shuffled deck, and each (driver, key) pair rotates through the driver's
    identities, so a client returns to a hot key after a fixed number of that
    key's ops.  With i.i.d. draws instead, how stale a writer's context was —
    and with it sibling counts, bytes per op and ops/s on 8 hot keys — moved
    by ~7% from seed to seed, more than any change worth detecting.
    """
    rng = random.Random(seed)
    names = key_names(keys)
    index_of = {key: index for index, key in enumerate(names)}
    decks: Dict[str, List[str]] = {}
    visits: Dict[Tuple[int, str], int] = {}
    per_driver: List[List[Op]] = [[] for _ in range(DRIVERS)]
    emitted = 0
    while emitted < ops:
        order = list(names)
        rng.shuffle(order)
        for key in order:
            if emitted >= ops:
                break
            deck = decks.get(key)
            if not deck:
                deck = decks[key] = _deck(spec)
                rng.shuffle(deck)
            step = deck.pop()
            driver = min(range(DRIVERS), key=lambda d: len(per_driver[d]))
            turn = visits.get((driver, key), 0)
            visits[(driver, key)] = turn + 1
            identity = _identity_for(driver, turn + index_of[key],
                                     spec.identities)
            if step in ("get", "pair"):
                per_driver[driver].append(Op(identity, "get", key, False, None))
                emitted += 1
            if step != "get" and emitted < ops:
                per_driver[driver].append(Op(
                    identity, "put", key, step != "blind",
                    _value(rng, f"{tag}{emitted}", spec.value_bytes)))
                emitted += 1
    return per_driver


def rebuild_rounds(seed: int, rounds: int) -> List[Tuple[str, str]]:
    """(victim, donor) per round: the victim rotates, the donor is seeded."""
    rng = random.Random(seed)
    start = rng.randrange(len(SERVER_IDS))
    plan = []
    for index in range(rounds):
        victim = SERVER_IDS[(start + index) % len(SERVER_IDS)]
        donor = rng.choice([s for s in SERVER_IDS if s != victim])
        plan.append((victim, donor))
    return plan


def sized(spec: Workload, smoke: bool) -> Tuple[int, int, int, int]:
    """(keys, ops, rounds, probe ops per round) for a measuring run, or the
    tiny sizes of the ``--smoke`` self-test."""
    if smoke:
        return (spec.smoke_keys, spec.smoke_ops, spec.smoke_rounds,
                min(20, spec.probe_ops))
    return spec.keys, spec.ops, spec.rounds, spec.probe_ops
