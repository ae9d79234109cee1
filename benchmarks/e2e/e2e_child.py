"""One repetition of one ``bench_e2e`` workload, in a process of its own.

``bench_e2e.py`` starts this file once per (workload, repetition) so that
``ru_maxrss``, the sibling-set fingerprint cache and ``sys.intern`` never leak
from one repetition into the next.  The cluster (3 servers, N=3 R=2 W=2
sloppy, Unix-domain sockets) and the load generator share **one process and
one event loop**; the network is the host's socket layer, not a real link.

The repetition prints one JSON object on its last output line: the
end-to-end metrics, the per-layer metrics when traced, the number of ops
attempted and failed, and every correctness violation found — after each run
the cluster is converged and judged by ``analysis.check_cluster``, every
op's result is checked, and every rebuild round must end converged.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import e2e_trace
import e2e_workloads as wl

#: A rebuild round that has not restored every key after this long has failed.
ROUND_DEADLINE_S = 30.0
CONVERGE_TIMEOUT_S = 60.0
#: Cadence of the loop-lag heartbeat (traced runs only).
HEARTBEAT_S = 0.005

#: Seconds one :meth:`Speedometer.sample` takes on an undisturbed core of the
#: sandbox the repo's first numbers were taken on.  Only its constancy matters.
KERNEL_NOMINAL_S = 70.0e-6
#: One sample per this many seconds of driving: ~2% of the loop's time.
SAMPLE_EVERY_S = 0.005


class Speedometer:
    """How much slower than nominal this machine is running right now.

    The sandbox is a shared VM whose effective CPU speed moves by up to 2x
    over seconds to minutes (README, "Machine-speed normalisation"); raw times
    then say more about the neighbours than about the program.  The drivers
    run this fixed pure-Python kernel — independent of everything under
    ``src/`` — every few milliseconds between operations, and every reported
    time is divided by ``slowdown`` = measured kernel time / nominal kernel
    time over the same phase.  The kernel's own time is subtracted from the
    timed sections.  One sample is long enough (~70 us) that the cold caches
    it starts with — which depend on what the program just did — do not
    decide its duration.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.seconds = 0.0
        self._due = 0.0

    def tick(self) -> None:
        """Take a sample if one is due (call between operations)."""
        if time.perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        clock = time.perf_counter
        start = clock()
        table: Dict[int, int] = {}
        packed = bytearray()
        for index in range(320):
            table[index & 7] = table.get(index & 7, 0) + index
            packed += (index & 255).to_bytes(2, "big")
        hashlib.sha256(packed).digest()
        end = clock()
        self.samples += 1
        self.seconds += end - start
        self._due = end + SAMPLE_EVERY_S

    def take(self) -> Tuple[int, float]:
        """(samples, seconds) since the last take; starts a new phase."""
        taken = (self.samples, self.seconds)
        self.samples, self.seconds = 0, 0.0
        return taken


def slowdown(samples: int, seconds: float) -> float:
    return seconds / samples / KERNEL_NOMINAL_S


class Window:
    """Accumulates wall, CPU, bytes and counter deltas over timed windows.

    A request workload opens one window around its whole op sequence;
    ``replica_rebuild`` opens one per round, so set-up, probes and the
    convergence checks between rounds stay out of every per-op figure.
    Spans are recorded exactly while a window is open.
    """

    def __init__(self, cluster, frame_bytes, tracer, speed: Speedometer) -> None:
        self._cluster = cluster
        self._frame_bytes = frame_bytes
        self._tracer = tracer
        self._speed = speed
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.wire_bytes = 0
        self.kernel = (0, 0.0)             # speedometer samples inside windows
        self.setup_kernel = (0, 0.0)       # ... and before the first window
        self.counts: Dict[str, float] = {}
        self.first_opened_at: Optional[float] = None
        self._open: Optional[tuple] = None

    def _snapshot(self) -> Dict[str, float]:
        """The cluster's own unified metrics plus the codec's cache counters."""
        from repro.core.codec import codec_stats

        counts = self._cluster.metrics_snapshot()
        counts.update((f"codec.{name}", value)
                      for name, value in codec_stats().items())
        return counts

    def open(self) -> float:
        counts = self._snapshot() if self._tracer is not None else {}
        if self.first_opened_at is None:
            for _ in range(20):            # hot_write has no preload to sample
                self._speed.sample()
            self.first_opened_at = time.time()
            self.setup_kernel = self._speed.take()
        self._speed.take()
        if self._tracer is not None:
            self._tracer.active = True
        self._open = (counts, self._frame_bytes.total, time.process_time(),
                      time.perf_counter())
        return self._open[3]

    def close(self) -> float:
        now = time.perf_counter()
        cpu = time.process_time()
        counts, wire_bytes, cpu_start, start = self._open
        self._open = None
        if self._tracer is not None:
            self._tracer.active = False
            for name, value in self._snapshot().items():
                self.counts[name] = self.counts.get(name, 0) + value - counts[name]
        samples, seconds = self._speed.take()
        self.wall_s += now - start - seconds
        self.cpu_s += cpu - cpu_start - seconds
        if not samples:        # a window shorter than the sampling period
            self._speed.sample()
            samples, seconds = self._speed.take()
        self.kernel = (self.kernel[0] + samples, self.kernel[1] + seconds)
        self.wire_bytes += self._frame_bytes.total - wire_bytes
        return now


async def _drive(sessions, ops, log: list, speed: Speedometer) -> None:
    """One closed-loop driver task: next request only after the reply."""
    clock = time.perf_counter
    for op in ops:
        speed.tick()
        session = sessions[op.identity]
        start = clock()
        if op.kind == "put":
            result = await session.put(op.key, op.value,
                                       use_context=op.use_context)
        else:
            result = await session.get(op.key)
        log.append((op, start, clock(), result))


def _quarter_rates(segments: List[Tuple[float, float]]) -> Tuple[float, float]:
    """ops/s over the first and over the last quarter of ``segments``.

    ``segments`` are (seconds, ops completed) in order — one per op for a
    request workload, one per round for a rebuild.  A run whose speed does
    not decay as state accumulates has both rates equal.
    """
    quarter = max(1, len(segments) // 4)

    def rate(part) -> float:
        seconds = sum(s for s, _ in part)
        return sum(ops for _, ops in part) / seconds if seconds > 0 else 0.0

    return rate(segments[:quarter]), rate(segments[-quarter:])


async def _heartbeat(tracer, lags_ms: List[float]) -> None:
    clock = time.perf_counter
    while True:
        due = clock() + HEARTBEAT_S
        await asyncio.sleep(HEARTBEAT_S)
        if tracer.active:
            lags_ms.append(max(0.0, (clock() - due) * 1e3))


@dataclasses.dataclass
class Rep:
    """Everything one repetition's phases share."""

    cluster: Any
    spec: wl.Workload
    sessions: list
    speed: Speedometer
    window: Window
    keys: int
    written: Dict[str, set] = dataclasses.field(default_factory=dict)
    violations: List[str] = dataclasses.field(default_factory=list)

    async def closed_loop(self, per_driver) -> list:
        """Run generated ops to completion, remembering what was written."""
        for ops in per_driver:
            for op in ops:
                if op.kind == "put":
                    self.written.setdefault(op.key, set()).add(op.value)
        log: list = []
        await asyncio.gather(*(_drive(self.sessions, ops, log, self.speed)
                               for ops in per_driver))
        return log

    async def settle(self) -> None:
        """Wait until every replica holds the same state for every key.

        With the daemon on this is ``converge()``; with it off (rebuild) the
        third replica of each write is still in flight when the client is
        acknowledged at W=2, and only waiting is needed.
        """
        await self.cluster.converge(timeout_s=CONVERGE_TIMEOUT_S, poll_s=0.02)

    def check_results(self, log: list) -> int:
        """Check every op's result; returns how many ops failed outright."""
        failed = 0
        for op, _start, _end, result in log:
            if result is None:
                failed += 1
            elif op.kind == "put":
                if result.sibling.value != op.value:
                    self.violations.append(
                        f"PUT {op.key} acknowledged another value")
            else:
                known = self.written.get(op.key, ())
                if any(value not in known for value in result.values):
                    self.violations.append(
                        f"GET {op.key} returned a value nobody wrote")
                if self.spec.preload and not result.values:
                    self.violations.append(
                        f"GET {op.key} lost its preloaded value")
        return failed


async def _run_requests(rep: Rep, seed: int, ops: int) -> Dict[str, Any]:
    per_driver = wl.generate_ops(rep.spec, seed, ops, rep.keys)
    start = rep.window.open()
    log = await rep.closed_loop(per_driver)
    rep.window.close()
    ends = sorted(end for _, _, end, _ in log)
    segments = [(end - previous, 1) for previous, end in zip([start] + ends, ends)]
    return {"ops": len(log), "attempted": len(log),
            "failed": rep.check_results(log), "log": log,
            "latency_slowdown": slowdown(*rep.window.kernel),
            "quarters": _quarter_rates(segments)}


async def _run_rebuild(rep: Rep, seed: int, rounds: int, probe_ops: int
                       ) -> Dict[str, Any]:
    cluster, window = rep.cluster, rep.window
    restored = attempted = failed = 0
    probe_log: list = []
    probe_kernel = [0, 0.0]
    segments: List[Tuple[float, float]] = []
    for index, (victim, donor) in enumerate(wl.rebuild_rounds(seed, rounds)):
        node = cluster.servers[victim].node
        expected = len(node.storage)
        start = window.open()
        node.wipe()
        cluster.servers[donor].start_merkle_sync_with(victim)
        give_up = start + ROUND_DEADLINE_S
        while len(node.storage) < expected and time.perf_counter() < give_up:
            rep.speed.tick()
            await asyncio.sleep(0.001)
        end = window.close()
        held = len(node.storage)
        attempted += expected
        restored += held
        failed += expected - held
        segments.append((end - start, held))
        if held < expected or not cluster.is_converged():
            rep.violations.append(
                f"round {index}: {victim} not rebuilt from {donor} by one "
                f"exchange ({held}/{expected} keys)")
        # Probe: the rebuilt cluster must serve requests correctly; its
        # latencies are this workload's request-latency metrics.
        probe_log += await rep.closed_loop(wl.generate_ops(
            rep.spec, seed * 1000 + index, probe_ops, rep.keys,
            tag=f"r{index}p"))
        samples, seconds = rep.speed.take()
        probe_kernel[0] += samples
        probe_kernel[1] += seconds
        await rep.settle()
    return {"ops": restored, "attempted": attempted + len(probe_log),
            "failed": failed + rep.check_results(probe_log), "log": probe_log,
            "latency_slowdown": slowdown(*probe_kernel),
            "quarters": _quarter_rates(segments)}


async def _final_state(rep: Rep) -> Dict[str, float]:
    """Judge the converged cluster, then take the paper's metadata figure.

    The figure is the causality metadata of a *resolved* key: every key the
    run left with concurrent siblings is first read and rewritten once by one
    client, as an application resolving its conflicts would.  Without that
    step the number mostly reports how many siblings the last few ops
    happened to leave, which differs from seed to seed by 2x.
    """
    from repro.analysis import check_cluster

    cluster = rep.cluster
    report = check_cluster(cluster)
    if cluster.mechanism.exact and not report.is_correct:
        rep.violations.append(
            f"{cluster.mechanism.name}: {report.total_lost_updates} lost "
            f"updates, {report.total_false_concurrency} false concurrency")
    nodes = [server.node for server in cluster.servers.values()]
    siblings = {}
    for node in nodes:
        for key in node.storage.keys():
            values = node.values_of(key)
            siblings[key] = max(siblings.get(key, 0), len(values))
            if any(value not in rep.written.get(key, ()) for value in values):
                rep.violations.append(
                    f"{node.node_id} stores an unwritten value under {key}")
    resolver = rep.sessions[0]
    for index, key in enumerate(sorted(k for k, n in siblings.items() if n > 1)):
        value = f"resolved-{index}"
        rep.written[key].add(value)
        if (await resolver.get(key) is None
                or await resolver.put(key, value) is None):
            rep.violations.append(f"could not resolve the siblings of {key}")
    await rep.settle()
    return {
        "metadata_bytes_per_key": max(
            node.metadata_bytes() / max(1, len(node.storage)) for node in nodes),
        "metadata_entries_per_key": max(
            node.metadata_entries() / max(1, len(node.storage)) for node in nodes),
        "siblings_max": max(siblings.values(), default=0),
    }


def _layer_metrics(tracer, window: Window, ops: int, lags_ms: List[float],
                   quarters, final: Dict[str, float], p99_ms: float
                   ) -> Dict[str, float]:
    from repro.core.codec import cache_hit_ratio

    n = window.counts                      # counter deltas over the windows
    per_op = 1.0 / ops
    slow = slowdown(*window.kernel)
    us_per_op = 1e6 * per_op / slow        # seconds -> normalised us per op
    metrics = {f"{name}_us_per_op": 0.0 for name in e2e_trace.SPAN_NAMES}
    calls: Dict[str, int] = {}
    self_total = 0.0
    for name, (count, seconds) in tracer.self_times().items():
        metrics[f"{name}_us_per_op"] = seconds * us_per_op
        calls[name] = count
        self_total += seconds
    frames = tracer.frame_sizes
    frame_bytes = sum(frames)
    residual = window.wall_s - self_total

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    metrics.update({
        "wire.frames_per_op": len(frames) * per_op,
        "wire.request_bytes_per_op":
            (frame_bytes - tracer.sync_frame_bytes) * per_op,
        "wire.sync_bytes_per_op": tracer.sync_frame_bytes * per_op,
        "wire.frame_bytes_p50": e2e_trace.percentile(frames, 0.5),
        "wire.frame_bytes_max": float(max(frames, default=0)),
        "wire.real_over_modelled": ratio(frame_bytes, tracer.modelled_bytes),
        "codec.encode_hit_ratio": cache_hit_ratio(n, "codec.encode"),
        "codec.fingerprint_hit_ratio": cache_hit_ratio(n, "codec.fingerprint"),
        "codec.encode_misses_per_op": n["codec.encode_misses"] * per_op,
        "protocol.messages_per_op": sum(
            count for name, count in calls.items()
            if name.startswith("protocol.")
            and name != "protocol.timer") * per_op,
        "effects.sends_per_op":
            calls.get("asyncio_transport.send", 0) * per_op,
        "asyncio_transport.dropped_frames":
            float(n["transport.dropped_unknown_destination"]),
        "asyncio_transport.deadlines_fired":
            float(n["transport.deadlines_fired"]),
        "storage.writes_per_op": n["storage.writes"] * per_op,
        "storage.merges_per_op": (
            n["storage.merges"] + n["storage.merkle_syncs"]
            + n["storage.hint_replays"] + n["storage.handoffs"]) * per_op,
        "clocks.siblings_max": float(final["siblings_max"]),
        "clocks.metadata_entries_per_key": final["metadata_entries_per_key"],
        "merkle_index.snapshots_per_op":
            calls.get("merkle_index.snapshot", 0) * per_op,
        "merkle_index.keys_hashed_per_op": n["storage.keys_hashed"] * per_op,
        "merkle_index.buckets_rehashed_per_op":
            n["storage.buckets_rehashed"] * per_op,
        "merkle_index.full_rebuilds": float(n["storage.full_rebuilds"]),
        "anti_entropy.exchanges_started": float(n["merkle.exchanges_started"]),
        "anti_entropy.clean_ratio": ratio(n["merkle.exchanges_clean"],
                                          n["merkle.exchanges_started"]),
        "anti_entropy.keys_transferred_per_op":
            n["merkle.keys_transferred"] * per_op,
        "anti_entropy.partitions_differing_ratio": ratio(
            n["merkle.partitions_differing"], n["merkle.partitions_compared"]),
        "loop.residual_us_per_op": residual * us_per_op,
        "loop.residual_share": ratio(residual, window.wall_s),
        "loop.lag_ms_p50": e2e_trace.percentile(lags_ms, 0.5) / slow,
        "loop.lag_ms_p99": e2e_trace.percentile(lags_ms, 0.99) / slow,
        "driver.p99_ms": p99_ms,
        "driver.ops_per_s_q1": quarters[0] * slow,
        "driver.ops_per_s_q4": quarters[1] * slow,
        "driver.traced_wall_us_per_op": window.wall_s * us_per_op,
        "driver.machine_slowdown": slow,
    })
    return metrics


async def _repetition(spec, seed: int, smoke: bool, tracer, frame_bytes,
                      mechanism, socket_dir: str, spawned_at: float
                      ) -> Dict[str, Any]:
    from repro.cluster.preference_list import QuorumConfig
    from repro.kvstore import AsyncioCluster

    keys, ops, rounds, probe_ops = wl.sized(spec, smoke)
    cluster = AsyncioCluster(
        mechanism, server_ids=wl.SERVER_IDS, quorum=QuorumConfig(**wl.QUORUM),
        socket_dir=socket_dir, anti_entropy_interval_ms=spec.anti_entropy_ms,
        replica_timeout_ms=wl.REPLICA_TIMEOUT_MS,
        request_timeout_ms=wl.REQUEST_TIMEOUT_MS)
    lags_ms: List[float] = []
    heartbeat = None
    async with cluster:
        try:
            sessions = [await cluster.client(name)
                        for name in wl.identity_names(spec.identities)]
            speed = Speedometer()
            window = Window(cluster, frame_bytes, tracer, speed)
            rep = Rep(cluster, spec, sessions, speed, window, keys)
            if spec.preload:
                log = await rep.closed_loop(wl.preload_ops(spec, keys))
                if any(result is None for *_, result in log):
                    raise RuntimeError("a preload write failed")
                await rep.settle()
            if tracer is not None:
                heartbeat = asyncio.get_running_loop().create_task(
                    _heartbeat(tracer, lags_ms))
            if spec.kind == "rebuild":
                run = await _run_rebuild(rep, seed, rounds, probe_ops)
            else:
                run = await _run_requests(rep, seed, ops)
            try:
                await rep.settle()
                final = await _final_state(rep)
            except TimeoutError:
                rep.violations.append("cluster did not converge after the run")
                final = {"metadata_bytes_per_key": 0.0, "siblings_max": 0,
                         "metadata_entries_per_key": 0.0}
            if any(not record.ok for record in cluster.all_request_records()):
                rep.violations.append("a client request record has ok=False")
        finally:
            if heartbeat is not None:
                heartbeat.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await heartbeat
    done = run["ops"]
    slow = slowdown(*window.kernel)
    wall_s = window.wall_s / slow
    to_ms = 1e3 / run["latency_slowdown"]
    latencies_ms = {kind: [(end - start) * to_ms
                           for op, start, end, _ in run["log"] if op.kind == kind]
                    for kind in ("put", "get")}
    end_to_end = {
        "setup_s": (window.first_opened_at - spawned_at)
        / slowdown(*window.setup_kernel),
        "ops_per_s": done / wall_s,
        "cpu_ms_per_op": window.cpu_s / slow * 1e3 / done,
        "wire_bytes_per_op": window.wire_bytes / done,
        "metadata_bytes_per_key": final["metadata_bytes_per_key"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {"workload": spec.name, "seed": seed, "ops": done,
              "attempted": run["attempted"], "failed": run["failed"],
              "violations": rep.violations, "end_to_end": end_to_end,
              "latencies_ms": latencies_ms,
              "per_layer": None, "machine_slowdown": slow,
              "timed_s": window.wall_s}
    if tracer is not None:
        result["per_layer"] = _layer_metrics(
            tracer, window, done, lags_ms, run["quarters"], final,
            e2e_trace.percentile(
                latencies_ms["put"] + latencies_ms["get"], 0.99))
    return result


def run_repetition(workload: str, seed: int, smoke: bool = False,
                   traced: bool = False, socket_dir: str = ".",
                   spans_path: Optional[str] = None,
                   spawned_at: Optional[float] = None) -> Dict[str, Any]:
    """Run one repetition in this process and return its result dict."""
    from repro.clocks import create

    spec = wl.WORKLOADS[workload]
    spawned_at = time.time() if spawned_at is None else spawned_at
    mechanism = create(spec.mechanism)
    with contextlib.ExitStack() as stack:
        frame_bytes = stack.enter_context(e2e_trace.count_frame_bytes())
        tracer = (stack.enter_context(e2e_trace.install_tracer(mechanism))
                  if traced else None)
        result = asyncio.run(_repetition(
            spec, seed, smoke, tracer, frame_bytes, mechanism, socket_dir,
            spawned_at))
    if tracer is not None and spans_path is not None:
        tracer.write_jsonl(spans_path)
    return result


def main(argv: List[str]) -> int:
    request = json.loads(argv[1])
    # Unix socket paths are limited to ~100 bytes and a checkout can live
    # anywhere, so the sockets are addressed relative to the working directory.
    scratch = Path(request.pop("scratch"))
    scratch.mkdir(parents=True, exist_ok=True)
    socket_dir = tempfile.mkdtemp(prefix="sock-", dir=scratch)
    os.chdir(socket_dir)
    try:
        result = run_repetition(socket_dir=".", **request)
    finally:
        os.chdir(scratch)
        shutil.rmtree(socket_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
