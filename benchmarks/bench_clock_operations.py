"""Ablation — cost of the individual kernel operations per clock type.

The server-side kernel (update / sync / join) is the part of the design whose
cost determines the per-request overhead of each mechanism.  This benchmark
measures those operations in isolation, so the latency differences the
simulated cluster shows (E4, ``tests/integration/test_workload_matrix.py``)
can be attributed: is it the bytes on the wire, the clock computation, or
both?
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.clocks import ClientVVMechanism, DVVMechanism, DVVSetMechanism, Sibling
from repro.core import (
    CausalHistory,
    DVVSet,
    Dot,
    DottedVersionVector,
    VersionVector,
)
from repro.core.dvv import join as dvv_join, sync as dvv_sync, update as dvv_update
from repro.core.serialization import encoded_size

SIBLING_COUNT = 8
SERVERS = [f"S{i}" for i in range(3)]
CLIENT_IDS = [f"client-{i}" for i in range(32)]


def build_dvv_siblings(count=SIBLING_COUNT):
    past = VersionVector({server: 5 for server in SERVERS})
    return [
        DottedVersionVector(Dot(SERVERS[index % len(SERVERS)], 6 + index // len(SERVERS)), past)
        for index in range(count)
    ]


def build_dvvset(count=SIBLING_COUNT):
    clock = DVVSet.empty()
    for index in range(count):
        clock = DVVSet.new("value-%d" % index).update(clock, SERVERS[index % len(SERVERS)])
    return clock


def build_hot_key(mechanism, siblings=30):
    """One hot key's stored state under ``mechanism``, and the context read
    before its concurrent writes.

    Every one of the 32 client ids writes once after reading, then
    ``siblings`` of them write concurrently from one shared read, round-robin
    over the three servers: the sibling set a replica merge sees on a hot
    key.
    """
    def write(state, context, index, client, seq):
        written = Sibling(value=f"{client}-{seq}", origin_dot=Dot(client, seq))
        return mechanism.write(state, context, written,
                               SERVERS[index % len(SERVERS)])

    state = mechanism.empty_state()
    for index, client in enumerate(CLIENT_IDS):
        state = write(state, mechanism.read(state).context, index, client, 1)
    shared = mechanism.read(state).context
    for index, client in enumerate(CLIENT_IDS[:siblings]):
        state = write(state, shared, index, client, 2)
    return state, shared


#: The write a hot key's replica folds in: a client whose last read came
#: before the 30 concurrent writes writes once more.
STALE_WRITE = Sibling(value="client-0-3", origin_dot=Dot(CLIENT_IDS[0], 3))


def build_replica_apply(mechanism):
    """What a hot key's replica folds in: its stored state, a merge result,
    and that state after the stale write, with that write's context."""
    state, stale = build_hot_key(mechanism)
    stored = mechanism.merge(state, mechanism.empty_state())
    return stored, mechanism.write(stored, stale, STALE_WRITE, SERVERS[0]), stale


REPLICA_APPLY = "client VV replica apply (30 siblings, one new write)"
DVV_REPLICA_APPLY = "dvv replica apply (30 siblings, one new write)"


def merge_operations():
    """The replica-merge rows: ``name → (callable, args)``.

    The two 30-sibling merges are the ones a hot key's replica pays; a
    return of the siblings² client-VV merge shows up here first.  Each
    replica apply is timed through ``merge`` and through ``absorb``: the
    client VV one folds in the whole written state, the dvv one the write's
    delta, as a replica is sent it.  The dvv write row is the coordinator's
    side of the same write.
    """
    dvv_mechanism, client_vv_mechanism = DVVMechanism(), ClientVVMechanism()
    dvv_state, _ = build_hot_key(dvv_mechanism)
    client_vv_state, _ = build_hot_key(client_vv_mechanism)
    assert len(dvv_state) == len(client_vv_state) == 30
    stored, incoming, _ = build_replica_apply(client_vv_mechanism)
    assert client_vv_mechanism.absorb(stored, incoming) == \
        client_vv_mechanism.merge(stored, incoming)
    dvv_stored, dvv_written, dvv_stale = build_replica_apply(dvv_mechanism)
    dvv_incoming = dvv_mechanism.write_delta(dvv_written)
    assert dvv_mechanism.absorb(dvv_stored, dvv_incoming) == \
        dvv_mechanism.merge(dvv_stored, dvv_incoming)
    dvvset_stored = build_dvvset()
    return {
        "dvv merge (30 siblings, 32 client ids)":
            (dvv_mechanism.merge, (dvv_state, dvv_state)),
        "client VV merge (30 siblings, 32 client ids)":
            (client_vv_mechanism.merge, (client_vv_state, client_vv_state)),
        f"{REPLICA_APPLY} via merge": (client_vv_mechanism.merge, (stored, incoming)),
        f"{REPLICA_APPLY} via absorb": (client_vv_mechanism.absorb, (stored, incoming)),
        f"{DVV_REPLICA_APPLY} via merge": (dvv_mechanism.merge, (dvv_stored, dvv_incoming)),
        f"{DVV_REPLICA_APPLY} via absorb": (dvv_mechanism.absorb, (dvv_stored, dvv_incoming)),
        "dvv write (30 siblings)":
            (dvv_mechanism.write, (dvv_stored, dvv_stale, STALE_WRITE, SERVERS[0])),
        "dvvset sync": (dvvset_stored.sync, (dvvset_stored,)),
    }


def reference_dvvset_metadata_bytes(state):
    """A dvvset key's modelled metadata size the long way: encode a freshly
    built join (so never from a memo) and add two bytes per live value."""
    return encoded_size(state.join()) + 2 * state.size()


DVVSET_SIZING = "dvvset metadata_bytes"
DVVSET_REFERENCE = "dvvset reference formula"
DVVSET_SIZES = ((1, "1 value"), (SIBLING_COUNT, f"{SIBLING_COUNT} values"))


def sizing_operations():
    """The metadata-sizing rows: ``name → (callable, args)``.

    ``metadata_bytes`` prices every state a replica ships or restores.  The
    dvvset rows pair the mechanism's counted size with the reference formula
    on the same state; the dvv and client VV rows size the 30-sibling hot key.
    """
    dvvset_mechanism = DVVSetMechanism()
    rows = {}
    for count, label in DVVSET_SIZES:
        state = build_dvvset(count)
        assert dvvset_mechanism.metadata_bytes(state) == \
            reference_dvvset_metadata_bytes(state)
        rows[f"{DVVSET_SIZING} ({label})"] = (dvvset_mechanism.metadata_bytes, (state,))
        rows[f"{DVVSET_REFERENCE} ({label})"] = (reference_dvvset_metadata_bytes, (state,))
    for mechanism in (DVVMechanism(), ClientVVMechanism()):
        rows[f"{mechanism.name} metadata_bytes (30 siblings, 32 client ids)"] = (
            mechanism.metadata_bytes, (build_hot_key(mechanism)[0],))
    return rows


def build_histories(count=SIBLING_COUNT, depth=50):
    shared = [Dot("S0", n) for n in range(1, depth)]
    return [
        CausalHistory(Dot(SERVERS[index % len(SERVERS)], depth + index), shared)
        for index in range(count)
    ]


class TestBenchmarkDVVKernel:
    def test_benchmark_dvv_update(self, benchmark):
        siblings = build_dvv_siblings()
        context = dvv_join(siblings)
        clock = benchmark(dvv_update, context, siblings, "S0")
        assert clock.dot.actor == "S0"

    def test_benchmark_dvv_sync(self, benchmark):
        left = build_dvv_siblings()
        right = build_dvv_siblings()
        merged = benchmark(dvv_sync, left, right)
        assert merged

    def test_benchmark_dvv_join(self, benchmark):
        siblings = build_dvv_siblings()
        context = benchmark(dvv_join, siblings)
        assert len(context) == len(SERVERS)


class TestBenchmarkDVVSet:
    def test_benchmark_dvvset_update(self, benchmark):
        stored = build_dvvset()
        incoming = DVVSet.new_with_context(stored.join(), "new-value")
        result = benchmark(incoming.update, stored, "S0")
        assert result.counter("S0") > stored.counter("S0")

    def test_benchmark_dvvset_sync(self, benchmark):
        left = build_dvvset()
        right = build_dvvset()
        merged = benchmark(left.sync, right)
        assert merged.entry_count() == len(SERVERS)

    def test_benchmark_dvvset_join(self, benchmark):
        stored = build_dvvset()
        context = benchmark(stored.join)
        assert len(context) == len(SERVERS)


class TestBenchmarkBaselines:
    def test_benchmark_vv_merge(self, benchmark):
        left = VersionVector({f"client-{i}": i + 1 for i in range(64)})
        right = VersionVector({f"client-{i}": 65 - i for i in range(64)})
        merged = benchmark(left.merge, right)
        assert len(merged) == 64

    def test_benchmark_causal_history_merge(self, benchmark):
        histories = build_histories()
        merged = benchmark(histories[0].merge, histories[1])
        assert len(merged) > 0

    def test_benchmark_causal_history_compare(self, benchmark):
        histories = build_histories()
        result = benchmark(histories[0].compare, histories[1])
        assert result is not None


def test_report_kernel_costs(publish):
    """One consolidated table of per-operation costs (microseconds)."""
    import time

    def cost(callable_, *args, iterations=3000):
        start = time.perf_counter()
        for _ in range(iterations):
            callable_(*args)
        return (time.perf_counter() - start) / iterations * 1e6

    dvv_siblings = build_dvv_siblings()
    dvv_context = dvv_join(dvv_siblings)
    dvvset_stored = build_dvvset()
    dvvset_incoming = DVVSet.new_with_context(dvvset_stored.join(), "v")
    histories = build_histories()
    client_vv = VersionVector({f"client-{i}": i + 1 for i in range(64)})
    merges = merge_operations()

    def merge_row(name):
        callable_, args = merges[name]
        return [name, round(cost(callable_, *args), 2)]

    rows = [
        ["dvv update", round(cost(dvv_update, dvv_context, dvv_siblings, "S0"), 2)],
        ["dvv sync", round(cost(dvv_sync, dvv_siblings, dvv_siblings), 2)],
        ["dvv join", round(cost(dvv_join, dvv_siblings), 2)],
        merge_row("dvv merge (30 siblings, 32 client ids)"),
        ["dvvset update", round(cost(dvvset_incoming.update, dvvset_stored, "S0"), 2)],
        merge_row("dvvset sync"),
        ["client VV pointwise merge (64 entries)",
         round(cost(client_vv.merge, client_vv), 2)],
        merge_row("client VV merge (30 siblings, 32 client ids)"),
        merge_row(f"{REPLICA_APPLY} via merge"),
        merge_row(f"{REPLICA_APPLY} via absorb"),
        merge_row(f"{DVV_REPLICA_APPLY} via merge"),
        merge_row(f"{DVV_REPLICA_APPLY} via absorb"),
        merge_row("dvv write (30 siblings)"),
        ["causal history merge", round(cost(histories[0].merge, histories[1]), 2)],
        ["causal history compare", round(cost(histories[0].compare, histories[1]), 2)],
    ]
    table = render_table(["operation", "cost (us)"], rows,
                         title="Ablation — kernel operation costs")
    publish("ablation_kernel_costs", table)
    assert rows


# --------------------------------------------------------------------------- #
# Smoke mode: wire-codec costs per mechanism, persisted for the dashboard
# --------------------------------------------------------------------------- #
def _representative_clocks():
    """One representative stored clock per mechanism, as shipped on the wire."""
    histories = build_histories()
    return {
        "dvv": build_dvv_siblings()[0],
        "dvvset": build_dvvset(),
        "server_vv": VersionVector({server: 40 for server in SERVERS}),
        "client_vv": VersionVector({f"client-{i}": i + 1 for i in range(64)}),
        "causal_history": histories[0].merge(histories[1]),
    }


#: Perf gate (CI): each ``(section, row, metric)`` of the fresh smoke numbers
#: may not regress more than 2x against the checked-in baseline JSON.
#: Sub-microsecond cached timings are noisy on shared runners, so the limit
#: never drops below the floor — a genuine cache regression (back to
#: O(entries) walks) overshoots both bounds by orders of magnitude, and so
#: does a client-VV merge that compares its 30 siblings pairwise again.
PERF_GATES = (
    ("mechanisms", "dvvset", "encode_ns"),
    ("merges", "client VV merge (30 siblings, 32 client ids)", "cost_ns"),
)
PERF_GATE_FLOOR_NS = 2000.0

#: In-run gate (CI): each replica apply through ``absorb`` may cost at most
#: this share of the same apply through ``merge``.  Both are timed in the
#: same run, so unlike the 2x gates the bound does not depend on the machine.
ABSORB_GATE_RATIO = 0.5
ABSORB_GATED = (REPLICA_APPLY, DVV_REPLICA_APPLY)

#: In-run gate (CI): a dvvset key's counted ``metadata_bytes`` may cost at
#: most this share of the reference formula on the same state, timed in the
#: same run.  Building and encoding the join again fails it several times over.
SIZING_GATE_RATIO = 0.25
SIZING_ROUNDS = 10


def check_perf_gate(baseline: dict, fresh: dict) -> list:
    """Regressions of the gated metrics vs the checked-in baseline, and an
    ``absorb`` over the in-run ratio, if any."""
    failures = []
    for section, row, metric in PERF_GATES:
        reference = (baseline or {}).get(section, {}).get(row, {}).get(metric)
        if reference is None:
            continue  # pre-gate baseline (or first run): nothing to compare
        new = fresh[section][row][metric]
        limit = max(2.0 * reference, PERF_GATE_FLOOR_NS)
        if new > limit:
            failures.append(
                f"{row} {metric} regressed: {new:.1f}ns > limit {limit:.1f}ns "
                f"(baseline {reference:.1f}ns)")
    merges = fresh["merges"]
    for row in ABSORB_GATED:
        absorb = merges[f"{row} via absorb"]["cost_ns"]
        merge = merges[f"{row} via merge"]["cost_ns"]
        if absorb > ABSORB_GATE_RATIO * merge:
            failures.append(
                f"{row}: absorb {absorb:.1f}ns > {ABSORB_GATE_RATIO} x "
                f"merge {merge:.1f}ns")
    sizing = fresh["sizing"]
    for _, label in DVVSET_SIZES:
        counted = sizing[f"{DVVSET_SIZING} ({label})"]["cost_ns"]
        reference = sizing[f"{DVVSET_REFERENCE} ({label})"]["cost_ns"]
        if counted > SIZING_GATE_RATIO * reference:
            failures.append(
                f"{DVVSET_SIZING} ({label}): {counted:.1f}ns > "
                f"{SIZING_GATE_RATIO} x reference formula {reference:.1f}ns")
    return failures


def run_smoke(results_path: str, iterations: int = 2000) -> int:
    """Measure encode/decode cost and encoded size per clock type, the
    replica-merge rows of :func:`merge_operations` and the metadata-sizing
    rows of :func:`sizing_operations`.

    Encode runs against one representative instance per mechanism, so after
    the first (cold) iteration every call is served from the canonical-bytes
    memo — exactly the store's steady state, where the same stored clocks are
    re-encoded per request.  ``cache_hit_ratio``
    reports encodes served from cache / total for the measured loop.
    """
    import json
    import pathlib
    import sys
    import time

    from repro.core import codec
    from repro.core.serialization import decode, encode, entry_count

    def cost_ns(callable_, *args):
        start = time.perf_counter()
        for _ in range(iterations):
            callable_(*args)
        return (time.perf_counter() - start) / iterations * 1e9

    baseline = None
    baseline_path = pathlib.Path(results_path)
    if baseline_path.exists():
        try:
            baseline = json.loads(baseline_path.read_text())
        except ValueError:
            baseline = None

    results = {"benchmark": "clock_operations", "iterations": iterations,
               "mechanisms": {}}
    rows = []
    for name, clock in sorted(_representative_clocks().items()):
        encoded = encode(clock)
        if type(decode(encoded)) is not type(clock):
            print(f"FAIL: {name} does not round-trip through the wire codec",
                  file=sys.stderr)
            return 1
        codec.reset_codec_stats()
        encode_ns = cost_ns(encode, clock)
        stats = codec.codec_stats()
        measured = {
            "encode_ns": round(encode_ns, 1),
            "decode_ns": round(cost_ns(decode, encoded), 1),
            "encoded_bytes": encoded_size(clock),
            "entries": entry_count(clock),
            "cache_hit_ratio": round(codec.cache_hit_ratio(stats, "encode"), 4),
        }
        results["mechanisms"][name] = measured
        rows.append([name, measured["encode_ns"],
                     measured["decode_ns"], measured["encoded_bytes"],
                     measured["entries"], measured["cache_hit_ratio"]])
    print(render_table(
        ["mechanism", "encode (ns)", "decode (ns)",
         "bytes", "entries", "hit ratio"],
        rows, title="Clock wire-codec smoke"))

    results["merges"] = {
        name: {"cost_ns": round(cost_ns(callable_, *args), 1)}
        for name, (callable_, args) in merge_operations().items()
    }
    print(render_table(
        ["operation", "cost (ns)"],
        [[name, row["cost_ns"]] for name, row in results["merges"].items()],
        title="Replica merge smoke"))

    # Best of interleaved rounds: the in-run gate compares two sub-10us rows,
    # and one descheduled round would otherwise decide it.
    sizing = sizing_operations()
    best = dict.fromkeys(sizing, float("inf"))
    for _ in range(SIZING_ROUNDS):
        for name, (callable_, args) in sizing.items():
            best[name] = min(best[name], cost_ns(callable_, *args))
    results["sizing"] = {name: {"cost_ns": round(ns, 1)} for name, ns in best.items()}
    print(render_table(
        ["operation", "cost (ns)"],
        [[name, row["cost_ns"]] for name, row in results["sizing"].items()],
        title="Metadata sizing smoke"))

    failures = check_perf_gate(baseline, results)
    pathlib.Path(results_path).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {results_path}")
    if failures:
        for failure in failures:
            print(f"PERF GATE FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="measure wire-codec encode/decode costs and sizes, "
                             "replica-merge costs and metadata-sizing costs")
    parser.add_argument("--iterations", type=int, default=2000)
    parser.add_argument("--out", default="BENCH_clock_operations.json",
                        help="where --smoke writes its measured numbers as JSON")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    raise SystemExit(run_smoke(results_path=args.out, iterations=args.iterations))
