"""The reducer of ``tools/bench_pairs.py``, fed canned ``bench_e2e`` result
lines, and where it unpacks the two trees (no benchmark runs inside pytest)."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_pairs  # noqa: E402

CONTRACT = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "put_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "wire_bytes_per_op", "unit": "B", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def line(ops, put, wire=655.0, setup=1.8, correct=True, failed=0) -> dict:
    """What ``bench_e2e`` prints last, through JSON like the tool reads it."""
    values = {"ops_per_s": ops, "put_p50_ms": put, "wire_bytes_per_op": wire,
              "setup_s": setup}
    return json.loads(json.dumps({
        "correct": correct, "attempted": 4000, "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"}
                    for name, value in values.items()}}))


def rows_of(pairs) -> dict:
    return {row["name"]: row for row in bench_pairs.reduce_pairs(CONTRACT, pairs)}


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parents_quartiles():
    parents = [1300 + 10 * index for index in range(10)]         # IQR 45
    pairs = [(line(p, 1.30), line(p + 250, 1.10)) for p in parents]
    rows = rows_of(pairs)
    assert rows["ops_per_s"]["verdict"] == "gain"
    assert (rows["ops_per_s"]["wins"], rows["ops_per_s"]["pairs"]) == (10, 10)
    assert rows["ops_per_s"]["parent"] == (1322.5, 1345.0, 1367.5)
    assert round(rows["ops_per_s"]["ratio"], 3) == round(1595 / 1345, 3)
    assert rows["put_p50_ms"]["verdict"] == "gain"               # lower is better
    assert rows["wire_bytes_per_op"]["verdict"] == "same"        # ties: nobody wins
    assert rows["wire_bytes_per_op"]["wins"] == 0

    # Two losses in ten: better in the median, not a gain.
    pairs[0] = (line(1300, 1.30), line(1290, 1.10))
    pairs[1] = (line(1310, 1.30), line(1300, 1.10))
    assert rows_of(pairs)["ops_per_s"]["verdict"] == "same"

    # Ten wins by less than the parent's own spread: not a gain either.
    close = [(line(p, 1.30), line(p + 20, 1.30)) for p in parents]
    assert rows_of(close)["ops_per_s"]["verdict"] == "same"


def test_worse_is_judged_against_the_bound_and_wide_spread_is_unresolved():
    steady = [(line(1000 + index, 1.0), line(800 + index, 1.3)) for index in range(10)]
    rows = rows_of(steady)
    assert rows["ops_per_s"]["verdict"] == "worse"               # -20 % > 15 %
    assert rows["put_p50_ms"]["verdict"] == "worse"              # +30 % > 20 %

    within = [(line(1000 + index, 1.0), line(950 + index, 1.1)) for index in range(10)]
    assert rows_of(within)["ops_per_s"]["verdict"] == "same"

    # The parent's quartiles are further apart than the bound allows.
    noisy = [(line(p, 1.0, setup=s), line(p, 1.0, setup=1.8))
             for p, s in zip(range(1000, 1010),
                             (1.0, 1.1, 1.2, 1.5, 1.8, 2.0, 2.4, 2.6, 2.8, 3.0))]
    assert rows_of(noisy)["setup_s"]["verdict"] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    clear = [(p, line(1000, 1.0, setup=0.5)) for p, _ in noisy]
    assert rows_of(clear)["setup_s"]["verdict"] == "gain"


def test_incorrect_or_failing_runs_are_counted_and_the_table_names_every_metric():
    pairs = [(line(1000, 1.0), line(1100, 0.9)),
             (line(1000, 1.0, correct=False), line(1100, 0.9, failed=2))]
    assert bench_pairs.bad_runs(pairs) == 2
    assert bench_pairs.bad_runs(pairs[:1]) == 0
    table = bench_pairs.markdown("wide_read", bench_pairs.reduce_pairs(CONTRACT, pairs))
    lines = table.splitlines()
    assert lines[0].startswith("| `wide_read` metric | unit |")
    assert len(lines) == 2 + len(CONTRACT["end_to_end"])
    assert "| `ops_per_s` | 1/s | 1000 / 1000 / 1000 | 1100 / 1100 / 1100 " \
           "| 1.100 | 2/2 | gain |" in table


def test_both_trees_are_siblings_with_paths_of_one_length(tmp_path):
    """A longer path on one side alone moved ``hot_write`` by 13 %."""
    parent, change = bench_pairs.tree_dirs(tmp_path)
    assert parent != change
    assert parent.parent == change.parent == tmp_path
    assert len(str(parent)) == len(str(change))
    assert bench_pairs.ROOT not in (parent, change)


@pytest.mark.skipif(not (REPO_ROOT / ".git").exists(),
                    reason="lists files through git; needs a checkout")
def test_the_change_side_is_a_copy_of_tracked_and_unignored_files(tmp_path):
    change = tmp_path / "change"
    bench_pairs.copy_working_tree(change)
    assert (change / "BENCHMARK.json").read_bytes() == \
        (REPO_ROOT / "BENCHMARK.json").read_bytes()
    assert (change / "benchmarks" / "e2e" / "bench_e2e.py").is_file()
    assert (change / "src" / "repro" / "__init__.py").is_file()
    assert not (change / ".git").exists()
    assert not list(change.rglob("__pycache__"))


def test_workload_lists_and_all_measure_each_in_turn(monkeypatch, capsys):
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    every = [workload["name"] for workload in contract["workloads"]]
    assert bench_pairs.workloads_of("all", contract) == every
    assert bench_pairs.workloads_of("wide_read, hot_write", contract) == [
        "wide_read", "hot_write"]
    with pytest.raises(SystemExit):
        bench_pairs.workloads_of("wide_read,nope", contract)

    runs = []

    def fake_run(tree, workload, seed):
        runs.append((tree.name, workload, seed))
        # one incorrect run, in the last workload only
        return line(1000, 1.0, correct=not (workload == every[-1]
                                            and tree.name == "change"
                                            and seed == 8))

    monkeypatch.setattr(bench_pairs, "unpack_ref", lambda ref, into: into.mkdir())
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda into: into.mkdir())
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    reduce_pairs = bench_pairs.reduce_pairs      # canned lines: four metrics
    monkeypatch.setattr(bench_pairs, "reduce_pairs",
                        lambda _contract, pairs: reduce_pairs(CONTRACT, pairs))
    monkeypatch.setattr(bench_pairs, "markdown", lambda workload, rows:
                        f"| `{workload}` table, {len(rows)} rows |")

    assert bench_pairs.main(["--parent", "HEAD", "--workload", "all",
                             "--pairs", "2", "--seed-base", "7"]) == 1
    # Each workload's pairs run in turn, the side that goes first alternating.
    assert runs == [(tree, workload, seed) for workload in every
                    for seed, trees in ((7, ("parent", "change")),
                                        (8, ("change", "parent")))
                    for tree in trees]
    out = capsys.readouterr()
    assert [row for row in out.out.splitlines() if row] == [
        f"| `{workload}` table, {len(CONTRACT['end_to_end'])} rows |"
        for workload in every]
    assert f"{every[-1]}: 1 run(s) not correct" in out.err

    runs.clear()
    assert bench_pairs.main(["--parent", "HEAD", "--workload", every[0],
                             "--pairs", "2"]) == 0
    assert {workload for _, workload, _ in runs} == {every[0]}


def test_the_real_contract_has_what_the_reducer_reads():
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for metric in contract["end_to_end"]:
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] < 1 and metric["name"] and metric["unit"]
