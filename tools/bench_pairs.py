#!/usr/bin/env python3
"""Paired parent/change measurement of one ``bench_e2e`` workload.

The measurement every performance change needs (``choosing-metrics`` §8), as
one command::

    python tools/bench_pairs.py --parent HEAD~1 --workload wide_read --pairs 10

It unpacks ``--parent`` (any git ref) into a temporary directory, then runs
``benchmarks/e2e/bench_e2e.py --trace 0`` on that tree and on this one
``--pairs`` times — one seed per pair (``--seed-base`` + pair index), the side
that goes first alternating — and prints, per end-to-end metric of
``BENCHMARK.json``, both sides' quartiles, the wins and a verdict, as a
Markdown table ready for CHANGES.md:

* **gain** — the change reads better in at least nine tenths of the pairs
  (ties count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles;
* **worse** — the change's median is worse than the parent's by more than the
  metric's bound;
* **unresolved** — neither, but the parent's own quartiles are further apart
  than the bound, so "no regression" cannot be read off these runs;
* **same** — none of the above.

The exit code is non-zero if any run was not ``correct`` or had failed
operations.  The parent tree is a ``git archive`` snapshot, so nothing is
registered in ``.git`` and an interrupted run leaves only a temp directory
behind; it is removed at the end.  Nothing under ``benchmarks/e2e/`` is touched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: The share of pairs a claimed gain has to win.
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One untraced ``bench_e2e`` run of ``tree``; its closing result object."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "bench_e2e.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=tree, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench_pairs: bench_e2e in {tree} exited with code "
                         f"{done.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def reduce_pairs(contract: Dict[str, Any],
                 pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]]
                 ) -> List[Dict[str, Any]]:
    """``[(parent result, change result)]`` -> one row per end-to-end metric."""
    rows = []
    for metric in contract["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        p_q1, p_med, p_q3 = _quartiles(parent)
        c_q1, c_med, c_q3 = _quartiles(change)
        gained = sign * (c_med - p_med)
        bound = metric["bound"] * abs(p_med)
        # every run of the change reads better than every run of the parent
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        if wins >= WIN_SHARE * len(pairs) and gained > p_q3 - p_q1:
            verdict = "gain"
        elif -gained > bound:
            verdict = "worse"
        elif p_q3 - p_q1 > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append({"name": name, "unit": metric["unit"],
                     "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
                     "ratio": c_med / p_med if p_med else float("nan"),
                     "wins": wins, "pairs": len(pairs), "verdict": verdict})
    return rows


def bad_runs(pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]]) -> int:
    """Runs that were not ``correct`` or had failed operations."""
    return sum(1 for pair in pairs for run in pair
               if not run["correct"] or run["failed"] > 0)


def markdown(workload: str, rows: List[Dict[str, Any]]) -> str:
    def spread(quartiles: Tuple[float, float, float]) -> str:
        return " / ".join(f"{value:.4g}" for value in quartiles)

    lines = [f"| `{workload}` metric | unit | parent q1 / median / q3 "
             f"| change q1 / median / q3 | change ÷ parent | wins | verdict |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| `{row['name']}` | {row['unit']} | {spread(row['parent'])} "
            f"| {spread(row['change'])} | {row['ratio']:.3f} "
            f"| {row['wins']}/{row['pairs']} | {row['verdict']} |")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git ref of the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=101)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        archive = Path(scratch) / "parent.tar"
        subprocess.run(["git", "archive", "-o", str(archive), args.parent],
                       cwd=ROOT, check=True)
        parent_tree = Path(scratch) / "parent"
        parent_tree.mkdir()
        subprocess.run(["tar", "-xf", str(archive), "-C", str(parent_tree)],
                       check=True)
        for index in range(args.pairs):
            seed = args.seed_base + index
            order = [parent_tree, ROOT] if index % 2 == 0 else [ROOT, parent_tree]
            results = {tree: run_once(tree, args.workload, seed) for tree in order}
            pairs.append((results[parent_tree], results[ROOT]))
            print(f"pair {index + 1}/{args.pairs} (seed {seed}): ops_per_s "
                  f"{pairs[-1][0]['metrics']['ops_per_s']['value']:.1f} -> "
                  f"{pairs[-1][1]['metrics']['ops_per_s']['value']:.1f}",
                  file=sys.stderr)
    print(markdown(args.workload, reduce_pairs(contract, pairs)))
    bad = bad_runs(pairs)
    if bad:
        print(f"bench_pairs: {bad} run(s) not correct or with failed operations",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
