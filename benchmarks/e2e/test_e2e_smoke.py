"""Self-test of ``bench_e2e`` at ``--smoke`` sizes (collected by tier-1).

Checks the instrument, not the system's speed: inputs are a function of the
seed, the byte counter counts real frames, a traced run's self times plus the
loop residual account for all of the traced wall time, and the command prints
every metric ``BENCHMARK.json`` declares, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench_e2e
import e2e_child
import e2e_trace
import e2e_workloads as wl

CONTRACT = bench_e2e.load_contract()
BENCH = [sys.executable, str(bench_e2e.HERE / "bench_e2e.py")]


def _ops(name: str, seed: int):
    spec = wl.WORKLOADS[name]
    return wl.generate_ops(spec, seed, 200, spec.smoke_keys)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert _ops(name, 7) == _ops(name, 7)
    assert _ops(name, 7) != _ops(name, 8)
    assert wl.rebuild_rounds(7, 6) == wl.rebuild_rounds(7, 6)


def test_baseline_workload_gets_identical_traffic():
    assert _ops("hot_write", 7) == _ops("hot_write_cvv", 7)
    assert (wl.WORKLOADS["hot_write"].mechanism
            != wl.WORKLOADS["hot_write_cvv"].mechanism)


def test_byte_counter_counts_real_frame_bytes():
    from repro.core.dot import Dot
    from repro.network import asyncio_transport, wire
    from repro.network.message import Message, MessageType

    messages = [
        Message("client:c1", "A", MessageType.COORDINATE_GET, {"key": "k"}),
        Message("A", "B", MessageType.REPLICA_PUT,
                {"key": "k", "dots": [Dot("A", 1), Dot("B", 22)]},
                size_bytes=5, request_id=9),
        Message("B", "A", MessageType.MERKLE_KEY_STATES,
                {"states": {"k": ("x" * 300, 1.5, None)}}, size_bytes=1),
    ]
    original = asyncio_transport.frame_message
    with e2e_trace.count_frame_bytes() as counter:
        for message in messages:
            asyncio_transport.frame_message(message)
    assert counter.total == sum(len(wire.frame_message(m)) for m in messages)
    assert asyncio_transport.frame_message is original


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_smoke_run_is_correct_and_accounts_for_all_time(name, tmp_path):
    from repro.kvstore.server import StorageNode

    before = vars(StorageNode)["local_merge"]
    result = e2e_child.run_repetition(
        name, seed=3, smoke=True, traced=True, socket_dir=str(tmp_path),
        spans_path=str(tmp_path / "spans.jsonl"))
    assert vars(StorageNode)["local_merge"] is before   # wrappers removed

    assert result["violations"] == []
    assert result["failed"] == 0 and result["attempted"] >= result["ops"] > 0
    end_to_end = dict(result["end_to_end"], **e2e_trace.latency_metrics(
        result["latencies_ms"]["put"], result["latencies_ms"]["get"]))
    assert {m["name"] for m in CONTRACT["end_to_end"]} == set(end_to_end)
    layers = result["per_layer"]
    # trace_overhead_ratio compares two repetitions; the orchestrator adds it.
    assert ({m["name"] for m in CONTRACT["per_layer"]}
            - {"driver.trace_overhead_ratio"}) == set(layers)
    assert all(value > 0 for value in end_to_end.values())

    self_time = sum(layers[f"{name}_us_per_op"]
                    for name in e2e_trace.SPAN_NAMES)
    assert self_time + layers["loop.residual_us_per_op"] == pytest.approx(
        layers["driver.traced_wall_us_per_op"], rel=1e-9)
    assert 0.0 <= layers["loop.residual_share"] < 1.0
    assert layers["wire.real_over_modelled"] > 1.0

    spans = [json.loads(line) for line in
             (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and all(
        span["parent"] is None or span["parent"] < span["id"] for span in spans)
    if name == "replica_rebuild":
        assert layers["anti_entropy.exchanges_started"] == \
            wl.WORKLOADS[name].smoke_rounds
        assert layers["protocol.coordinator_us_per_op"] == 0.0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric_with_its_unit(trace, section):
    done = subprocess.run(
        BENCH + ["--workload", "wide_read", "--smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=60, check=False)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in CONTRACT[section]}


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench_e2e.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench_e2e.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "bench_e2e.py"),
         "--workload", "hot_write", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
