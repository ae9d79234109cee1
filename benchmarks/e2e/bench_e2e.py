"""bench_e2e — the repo's end-to-end benchmark (see README.md beside this file).

One command per workload::

    python3 benchmarks/e2e/bench_e2e.py --workload hot_write \\
        --seed 2012 --seconds 9 --trace 0

It runs the workload's fixed op sequence (generated from ``--seed``) against
a real-socket ``AsyncioCluster`` in a fresh child process per repetition,
repeats until at least ``--repetitions`` repetitions are done and ``--seconds``
seconds of timed work have been measured, checks correctness after every
repetition, prints each metric's value/min/max, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with only a
frame byte counter installed; ``--trace 1`` reports the per-layer metrics from
traced repetitions (plus one untraced repetition to state the tracing
overhead) and leaves the first traced repetition's spans as JSONL.  A correctness
violation is printed and makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e_trace
import e2e_workloads as wl

#: The driver allows 180 s per run; stop adding repetitions well before that.
MAX_RUN_S = 150.0
#: Scratch (socket directories, span files); ``benchmarks/results/`` is ignored.
RESULTS_DIR = ROOT / "benchmarks" / "results" / "e2e"


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(workload: str, seed: int, smoke: bool, traced: bool,
              spans_path: Optional[Path], timeout_s: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its result dict."""
    request = {"workload": workload, "seed": seed, "smoke": smoke,
               "traced": traced, "scratch": str(RESULTS_DIR),
               "spans_path": str(spans_path) if spans_path else None,
               "spawned_at": time.time()}
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "e2e_child.py"), json.dumps(request)],
            stdout=subprocess.PIPE, text=True, timeout=timeout_s, check=False,
            # A fixed hash seed makes set/dict iteration order — and with it
            # the program's behaviour for a given --seed — repeatable.
            env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        raise SystemExit(f"bench_e2e: repetition of {workload} exceeded "
                         f"{timeout_s:.0f}s and was killed")
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"bench_e2e: repetition of {workload} exited with "
                         f"code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repetition_seed(seed: int, index: int) -> int:
    """Each repetition gets its own inputs, derived from ``--seed``.

    A run's medians and pooled percentiles then average over several op
    orders instead of repeating one, which is what keeps ten runs on ten
    seeds within a few percent of each other on the 8-key workloads.
    """
    return seed * 1000 + index


def reduce_results(results: List[Dict[str, Any]], trace: bool,
                   untraced_rate: float = 0.0) -> Dict[str, Dict[str, float]]:
    """Repetition results -> {metric: {"value", "min", "max", "n"}}.

    End-to-end: the median over repetitions, except the three latency
    metrics, which are percentiles over the ops of all repetitions pooled (a
    p99 needs the samples).  Per-layer: the values of the one repetition with
    the median ``ops_per_s``, so self times still add up to that
    repetition's wall time; ``driver.trace_overhead_ratio`` compares the
    first traced repetition with the untraced one of the same inputs.
    """
    section = "per_layer" if trace else "end_to_end"
    table = {
        name: {"value": statistics.median(r[section][name] for r in results),
               "min": min(r[section][name] for r in results),
               "max": max(r[section][name] for r in results),
               "n": len(results)}
        for name in results[0][section]}
    if trace:
        ranked = sorted(results, key=lambda r: r["end_to_end"]["ops_per_s"])
        for name, value in ranked[len(ranked) // 2]["per_layer"].items():
            table[name]["value"] = value
        ratio = results[0]["end_to_end"]["ops_per_s"] / untraced_rate
        table["driver.trace_overhead_ratio"] = {
            "value": ratio, "min": ratio, "max": ratio, "n": 1}
    else:
        pools = {kind: [ms for r in results for ms in r["latencies_ms"][kind]]
                 for kind in ("put", "get")}
        for name, value in e2e_trace.latency_metrics(
                pools["put"], pools["get"]).items():
            table[name] = {"value": value, "min": value, "max": value,
                           "n": len(pools["put"]) + len(pools["get"])}
    return table


def measure(workload: str, seed: int, seconds: float, trace: bool,
            repetitions: int, smoke: bool) -> Dict[str, Any]:
    """Run repetitions and reduce them to the contract's result object."""
    declared = load_contract()["per_layer" if trace else "end_to_end"]
    spans_path = RESULTS_DIR / f"{workload}-seed{seed}.spans.jsonl"
    started = time.monotonic()
    untraced_rate = 0.0
    if trace:
        # Same inputs as the first traced repetition, nothing installed but
        # the byte counter: the base of the tracing-overhead ratio.
        untraced_rate = run_child(workload, repetition_seed(seed, 0), smoke,
                                  False, None, MAX_RUN_S
                                  )["end_to_end"]["ops_per_s"]
    results: List[Dict[str, Any]] = []
    measured_s = 0.0
    longest_s = 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(results) >= repetitions and (
                measured_s >= seconds or elapsed + longest_s > MAX_RUN_S):
            break
        began = time.monotonic()
        results.append(run_child(
            workload, repetition_seed(seed, len(results)), smoke, trace,
            spans_path if trace and not results else None,
            max(1.0, 175.0 - elapsed)))
        longest_s = max(longest_s, time.monotonic() - began)
        measured_s += results[-1]["timed_s"]

    table = reduce_results(results, trace, untraced_rate)
    missing = [m["name"] for m in declared if m["name"] not in table]
    if missing:
        raise SystemExit(f"bench_e2e: metrics declared in BENCHMARK.json but "
                         f"not measured: {missing}")
    slowdowns = [round(result["machine_slowdown"], 2) for result in results]
    print(f"{workload}: seed {seed}, {len(results)} repetitions, "
          f"{measured_s:.1f}s timed, {'traced' if trace else 'untraced'}, "
          f"machine slowdown per repetition {slowdowns} (times are divided "
          f"by it)")
    print(f"  {'metric':42s} {'unit':6s} {'value':>14s} {'min':>14s} "
          f"{'max':>14s} {'n':>5s}")
    metrics = {}
    for metric in declared:
        row = table[metric["name"]]
        print(f"  {metric['name']:42s} {metric['unit']:6s} "
              f"{row['value']:14.4f} {row['min']:14.4f} {row['max']:14.4f} "
              f"{row['n']:5d}")
        metrics[metric["name"]] = {"value": row["value"],
                                   "unit": metric["unit"]}
    violations = [f"repetition {index}: {violation}"
                  for index, result in enumerate(results)
                  for violation in result["violations"]]
    failed = sum(result["failed"] for result in results)
    if failed:
        violations.append(f"{failed} ops failed")
    for violation in violations:
        print(f"VIOLATION {violation}")
    if trace:
        print(f"  spans of the first traced repetition: {spans_path}")
    return {"correct": not violations,
            "attempted": sum(result["attempted"] for result in results),
            "failed": failed, "metrics": metrics}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                        help=f"input seed (default {wl.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds to measure (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=3,
                        help="minimum repetitions, one child process each")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, one repetition: a self-test, "
                             "not a measurement")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench_e2e: no src/repro next to the benchmark — nothing to "
              "measure", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else float(load_contract()["run_seconds"])
    if args.smoke:
        seconds, args.repetitions = 0.0, 1
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    result = measure(args.workload, args.seed, seconds, bool(args.trace),
                     args.repetitions, args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
