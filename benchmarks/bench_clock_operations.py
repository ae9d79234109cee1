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
from repro.core import (
    CausalHistory,
    DVVSet,
    Dot,
    DottedVersionVector,
    VersionVector,
)
from repro.core.dvv import join as dvv_join, sync as dvv_sync, update as dvv_update

SIBLING_COUNT = 8
SERVERS = [f"S{i}" for i in range(3)]


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

    rows = [
        ["dvv update", round(cost(dvv_update, dvv_context, dvv_siblings, "S0"), 2)],
        ["dvv sync", round(cost(dvv_sync, dvv_siblings, dvv_siblings), 2)],
        ["dvv join", round(cost(dvv_join, dvv_siblings), 2)],
        ["dvvset update", round(cost(dvvset_incoming.update, dvvset_stored, "S0"), 2)],
        ["dvvset sync", round(cost(dvvset_stored.sync, dvvset_stored), 2)],
        ["client VV merge (64 entries)", round(cost(client_vv.merge, client_vv), 2)],
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


#: Perf gate (CI): the fresh smoke numbers for this mechanism may not regress
#: more than 2x against the checked-in baseline JSON.  Sub-microsecond cached
#: timings are noisy on shared runners, so the limit never drops below the
#: floor — a genuine cache regression (back to O(entries) walks) overshoots
#: both bounds by orders of magnitude.
PERF_GATE_MECHANISM = "dvvset"
PERF_GATE_METRICS = ("encode_ns",)
PERF_GATE_FLOOR_NS = 2000.0


def check_perf_gate(baseline: dict, fresh: dict) -> list:
    """Regressions of the gated metrics vs the checked-in baseline, if any."""
    base = (baseline or {}).get("mechanisms", {}).get(PERF_GATE_MECHANISM, {})
    new = fresh["mechanisms"][PERF_GATE_MECHANISM]
    failures = []
    for metric in PERF_GATE_METRICS:
        reference = base.get(metric)
        if reference is None:
            continue  # pre-gate baseline (or first run): nothing to compare
        limit = max(2.0 * reference, PERF_GATE_FLOOR_NS)
        if new[metric] > limit:
            failures.append(
                f"{PERF_GATE_MECHANISM} {metric} regressed: "
                f"{new[metric]:.1f}ns > limit {limit:.1f}ns "
                f"(baseline {reference:.1f}ns)")
    return failures


def run_smoke(results_path: str, iterations: int = 2000) -> int:
    """Measure encode/decode cost and encoded size per clock type.

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
    from repro.core.serialization import decode, encode, encoded_size, entry_count

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
                        help="measure wire-codec encode/decode costs and sizes")
    parser.add_argument("--iterations", type=int, default=2000)
    parser.add_argument("--out", default="BENCH_clock_operations.json",
                        help="where --smoke writes its measured numbers as JSON")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    raise SystemExit(run_smoke(results_path=args.out, iterations=args.iterations))
