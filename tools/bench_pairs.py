#!/usr/bin/env python3
"""Paired parent/change measurement of ``bench_e2e`` workloads.

The measurement every performance change needs (``choosing-metrics`` §8), as
one command::

    python tools/bench_pairs.py --parent HEAD~1 --workload wide_read --pairs 10
    python tools/bench_pairs.py --parent HEAD~1 --workload all --pairs 4

It unpacks ``--parent`` (any git ref) *and* this working tree into two sibling
temporary directories, then, for each workload named (``--workload`` takes a
name, a comma-separated list or ``all``), runs
``benchmarks/e2e/bench_e2e.py --trace 0`` on both ``--pairs`` times — one seed
per pair (``--seed-base`` + pair index), the side that goes first
alternating — and prints, per end-to-end metric of ``BENCHMARK.json``, both
sides' quartiles, the wins and a verdict, as one Markdown table per workload
ready for CHANGES.md:

* **gain** — the change reads better in at least nine tenths of the pairs
  (ties count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles;
* **worse** — the change's median is worse than the parent's by more than the
  metric's bound;
* **unresolved** — neither, but the parent's own quartiles are further apart
  than the bound, so "no regression" cannot be read off these runs;
* **same** — none of the above.

Both sides run from copies whose paths have the same length, and neither runs
from the checkout.  That is deliberate: measured for ISSUE 22, *identical
sources* in ``/root/scratch/ctl0`` and ``/root/scratch/repo_ctl`` read 907–930
against 1050–1053 ``hot_write`` ops/s over seven interleaved runs — a 13 %
effect of the directory name alone, as large as most gains this tool
adjudicates.  ``--aa`` measures that floor directly: it runs the parent
against a second copy of the parent and exits non-zero if any metric comes out
``gain`` or ``worse``.

The exit code is also non-zero if any run, of any workload, was not
``correct`` or had failed operations.  The parent tree is a ``git archive``
snapshot and the change a copy of the tracked and the untracked-but-not-ignored
files, so nothing is registered in ``.git`` and an interrupted run leaves only
a temp directory behind; it is removed at the end.  Nothing under ``benchmarks/e2e/`` is touched.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: The share of pairs a claimed gain has to win.
WIN_SHARE = 0.9


def tree_dirs(scratch: Path) -> Tuple[Path, Path]:
    """Where the parent and the change are unpacked: siblings, names of one
    length, so neither side's paths are longer than the other's."""
    return scratch / "parent", scratch / "change"


def unpack_ref(ref: str, into: Path) -> None:
    """``git archive`` of ``ref``, extracted into the new directory ``into``."""
    into.mkdir()
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "-o", str(archive), ref],
                   cwd=ROOT, check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(into)], check=True)
    archive.unlink()


def copy_working_tree(into: Path) -> None:
    """This checkout as it stands — tracked files plus untracked ones git
    would not ignore — copied into the new directory ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    into.mkdir()
    for name in filter(None, listed.decode("utf-8").split("\0")):
        source = ROOT / name
        if source.is_file():            # a tracked file deleted here is absent
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


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


def workloads_of(spec: str, contract: Dict[str, Any]) -> List[str]:
    """``--workload``'s value as workload names: one, a comma-separated
    list, or ``all`` (every workload of ``BENCHMARK.json``, in its order)."""
    known = [workload["name"] for workload in contract["workloads"]]
    if spec == "all":
        return known
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        raise SystemExit(f"bench_pairs: unknown workload(s) {unknown or [spec]}; "
                         f"choose from {known} or 'all'")
    return names


def run_pairs(parent_tree: Path, change_tree: Path, workload: str,
              count: int, seed_base: int
              ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``count`` (parent, change) runs of ``workload``, alternating which
    side goes first."""
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    for index in range(count):
        seed = seed_base + index
        order = [parent_tree, change_tree]
        if index % 2:
            order.reverse()
        results = {tree: run_once(tree, workload, seed) for tree in order}
        pairs.append((results[parent_tree], results[change_tree]))
        print(f"{workload} pair {index + 1}/{count} (seed {seed}): ops_per_s "
              f"{pairs[-1][0]['metrics']['ops_per_s']['value']:.1f} -> "
              f"{pairs[-1][1]['metrics']['ops_per_s']['value']:.1f}",
              file=sys.stderr)
    return pairs


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git ref of the commit to compare against")
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma-separated list of them, "
                             "or 'all'; each is measured in turn and gets its "
                             "own table")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=101)
    parser.add_argument("--aa", action="store_true",
                        help="compare the parent with a second copy of itself; "
                             "any 'gain' or 'worse' is then the tool's own noise "
                             "and fails the run")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = workloads_of(args.workload, contract)
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent_tree, change_tree = tree_dirs(Path(scratch))
        unpack_ref(args.parent, parent_tree)
        if args.aa:
            unpack_ref(args.parent, change_tree)
        else:
            copy_working_tree(change_tree)
        for workload in workloads:
            pairs = run_pairs(parent_tree, change_tree, workload, args.pairs,
                              args.seed_base)
            rows = reduce_pairs(contract, pairs)
            print(markdown(workload, rows) + "\n", flush=True)
            bad = bad_runs(pairs)
            if bad:
                print(f"bench_pairs: {workload}: {bad} run(s) not correct or "
                      f"with failed operations", file=sys.stderr)
                failed = True
            moved = [row["name"] for row in rows
                     if row["verdict"] in ("gain", "worse")]
            if args.aa and moved:
                print(f"bench_pairs: {workload}: --aa compared identical "
                      f"sources, yet {moved} came out gain/worse — the "
                      f"measurement is noisier than its verdicts",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
