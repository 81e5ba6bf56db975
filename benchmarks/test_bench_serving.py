"""Serving-layer throughput: batched top-k vs one-at-a-time queries.

The serving counterpart of the fast-path benchmark: a degree-proximity
SE-GEmb model is trained once on the 20k-node benchmark graph (one cheap
epoch — serving perf does not depend on embedding quality), exported as a
memory-mapped servable, and queried through :class:`QueryEngine`:

* **batched vs single** — queries/sec of ``top_k`` over 64-row batches
  against the same queries issued one at a time.  The batched scan must
  amortise the corpus pass by at least
  ``REPRO_BENCH_MIN_SERVING_SPEEDUP`` (default 5.0; locally ~8x at 20k
  nodes, ~6-7x at 8k).
  The gated speedup is the median over interleaved batched/single pairs
  whose first arm alternates, so a slow stretch of the machine lands on
  both arms of a pair rather than on one arm.
  A :class:`QueryProfiler` rides along so the artifact records where each
  path spends its per-query time (gather / matmul / partition).
* **micro-batching server** — the same request stream issued as
  concurrent single-node awaits through :class:`BatchingServer`; the
  artifact records how many engine calls the coalescing window saved.
* **server closed loop** — ``CLIENTS`` closed-loop clients through
  :class:`BatchingServer` over the real engine, as the end-to-end
  benchmark's serve loop drives it.  The artifact records the p50 / p99
  request latency and how many distinct threads ran the engine; only the
  thread count is asserted (it must be 1: the server's own worker), since
  a latency gate would flake on a loaded machine.
* **server front-end cost** — µs per request of the server's own
  bookkeeping: 64 closed-loop clients against an engine that answers
  instantly, with the failure guards on (deadline, queue bound, circuit
  breaker, set as the end-to-end benchmark sets them) and off.  The gated
  ratio is the median over interleaved on/off pairs whose first arm
  alternates; guards on may cost at most ``MAX_GUARD_COST`` times guards
  off, so a per-request queue scan or per-request timer fails it.
* **zero-copy pin** — opening a ~50 MB synthetic servable and serving
  100 queries from it must allocate less than 5% of the payload
  (tracemalloc-enforced): a float32 servable is the engine's serving
  corpus as mapped, so every block is scored in place from the map
  through the preallocated workspace and the matrix is never
  materialised.  (A float64 servable would cost ``|V| · r · 4`` bytes of
  heap per engine, its one float32 cast.)

``REPRO_SERVING_BENCH_NODES`` scales the graph (default 20000); CI smoke
runs a reduced node count with the same assertions.  Headline numbers are
written to ``BENCH_serving_*.json``; both server benchmarks record into
``BENCH_serving_server.json``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import TrainingConfig
from repro.graph import load_dataset
from repro.models import get_method
from repro.serving import (
    BatchingServer,
    QueryEngine,
    QueryProfiler,
    ServableModel,
    TopKResult,
    write_servable,
)

from conftest import write_bench_artifact

BENCH_NODES = int(os.environ.get("REPRO_SERVING_BENCH_NODES", "20000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SERVING_SPEEDUP", "5.0"))
DIM = 64
BATCH = 64
K = 10
PAIRS = 5  # interleaved batched/single timing pairs
QUERY_ROWS = 512  # queries timed per arm of a pair
CLIENTS = 64  # closed-loop clients of the front-end cost bench
FRONT_END_REQUESTS = 4096  # requests timed per arm of a front-end pair
FRONT_END_PAIRS = 7
CLOSED_LOOP_REQUESTS = 16384  # requests timed in the real-engine closed loop
#: guards as the end-to-end benchmark's serve loop sets them
GUARDS = {"request_timeout": 5.0, "max_pending": 4 * CLIENTS, "breaker_threshold": 5}
MAX_GUARD_COST = 2.0


@pytest.fixture(scope="module")
def servable(tmp_path_factory):
    """Train one cheap model on the benchmark graph and export it."""
    graph = load_dataset("smallworld", num_nodes=BENCH_NODES, seed=3)
    config = TrainingConfig(
        embedding_dim=DIM, batch_size=1024, learning_rate=0.1,
        negative_samples=5, epochs=1,
    )
    model = get_method("se_gemb_deg").build(training=config, seed=0)
    model.fit(graph)
    path = tmp_path_factory.mktemp("serving") / "bench.servable"
    model.export_servable(path)
    with ServableModel.open(path) as opened:
        yield opened


@pytest.fixture(scope="module")
def server_artifact():
    """The record both server benchmarks write as ``BENCH_serving_server.json``."""
    record: dict = {}
    yield record
    if record:
        write_bench_artifact("serving_server", record)


def _paired_queries_per_sec(batched, single):
    """Median queries/sec of each arm and the median per-pair speedup.

    ``batched`` and ``single`` are ``(engine, batches)`` arms over the same
    ``QUERY_ROWS`` queries.  They run in ``PAIRS`` back-to-back pairs,
    alternating which arm goes first; within a pair both arms see the same
    machine speed.
    """
    arms = (batched, single)
    for engine, batches in arms:
        for batch in batches[:2]:  # warm-up: BLAS threads, allocator
            engine.top_k(batch, K)
    seconds: tuple[list[float], list[float]] = ([], [])
    for pair in range(PAIRS):
        for arm in (0, 1) if pair % 2 == 0 else (1, 0):
            engine, batches = arms[arm]
            start = time.perf_counter()
            for batch in batches:
                engine.top_k(batch, K)
            seconds[arm].append(time.perf_counter() - start)
    speedup = statistics.median(s / b for b, s in zip(*seconds, strict=True))
    batched_qps, single_qps = (QUERY_ROWS / statistics.median(arm) for arm in seconds)
    return batched_qps, single_qps, speedup


def _phase_means(profiler):
    return profiler.profile().to_dict()["phase_mean_seconds"]


def _phase_us_per_query(profiler):
    """Gather / matmul / partition µs per query, as the trajectory records them."""
    return {phase: seconds * 1e6 for phase, seconds in _phase_means(profiler).items()}


def test_batched_topk_speedup(bench_artifact, servable):
    rng = np.random.default_rng(11)
    nodes = rng.integers(0, servable.num_nodes, size=QUERY_ROWS, dtype=np.int64)

    batched_profiler = QueryProfiler()
    batched_engine = servable.query_engine(
        max_batch=BATCH, max_k=K, profiler=batched_profiler
    )
    single_profiler = QueryProfiler()
    single_engine = servable.query_engine(
        max_batch=1, max_k=K, profiler=single_profiler
    )
    batched_qps, single_qps, speedup = _paired_queries_per_sec(
        (batched_engine, [nodes[i:i + BATCH] for i in range(0, QUERY_ROWS, BATCH)]),
        (single_engine, [nodes[i:i + 1] for i in range(QUERY_ROWS)]),
    )
    print()
    print(
        f"top-{K} throughput on the {servable.num_nodes}-node servable "
        f"(r={servable.embedding_dim}, batch={BATCH}):"
    )
    print(f"  single-query  : {single_qps:10.1f} queries/sec")
    print(f"  batched       : {batched_qps:10.1f} queries/sec")
    print(f"  speedup       : {speedup:10.2f}x (median of {PAIRS} pairs)")
    bench_artifact(
        "serving_topk",
        {
            "nodes": servable.num_nodes,
            "embedding_dim": servable.embedding_dim,
            "k": K,
            "batch": BATCH,
            "query_rows": QUERY_ROWS,
            "pairs": PAIRS,
            "single_queries_per_sec": single_qps,
            "batched_queries_per_sec": batched_qps,
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
            "single_phase_mean_seconds": _phase_means(single_profiler),
            "batched_phase_mean_seconds": _phase_means(batched_profiler),
            "batched_phase_us_per_query": _phase_us_per_query(batched_profiler),
        },
    )
    assert speedup >= MIN_SPEEDUP


def test_batching_server_coalesces(server_artifact, servable):
    engine = servable.query_engine(max_batch=BATCH, max_k=K)
    requests = 256
    rng = np.random.default_rng(5)
    nodes = rng.integers(0, servable.num_nodes, size=requests)

    async def scenario():
        async with BatchingServer(engine, max_delay=0.002, default_k=K) as server:
            start = time.perf_counter()
            await asyncio.gather(*(server.top_k(int(node)) for node in nodes))
            elapsed = time.perf_counter() - start
            return elapsed, server.stats

    elapsed, stats = asyncio.run(scenario())
    qps = requests / elapsed
    print()
    print(
        f"micro-batching server: {requests} concurrent requests in "
        f"{elapsed * 1e3:.1f} ms ({qps:.0f} req/sec), "
        f"{stats.batches} engine calls, mean batch {stats.mean_batch_size:.1f}"
    )
    server_artifact.update(
        {
            "nodes": servable.num_nodes,
            "requests": requests,
            "requests_per_sec": qps,
            "elapsed_seconds": elapsed,
            **stats.to_dict(),
        },
    )
    # coalescing must actually batch: far fewer engine calls than requests
    assert stats.batches < requests / 2
    assert stats.coalesced_requests > 0


class _ThreadCountingEngine:
    """Delegates to a :class:`QueryEngine`, noting the thread of each call."""

    def __init__(self, engine):
        self.engine = engine
        self.max_batch = engine.max_batch
        self.threads: set[int] = set()

    def top_k(self, nodes, k, **options):
        self.threads.add(threading.get_ident())
        return self.engine.top_k(nodes, k, **options)


def test_batching_server_closed_loop(server_artifact, servable):
    engine = _ThreadCountingEngine(servable.query_engine(max_batch=BATCH, max_k=K))
    rng = np.random.default_rng(6)
    nodes = rng.integers(0, servable.num_nodes, size=CLOSED_LOOP_REQUESTS)
    latencies = np.empty(CLOSED_LOOP_REQUESTS)

    async def scenario():
        cursor = 0
        async with BatchingServer(
            engine, max_batch=BATCH, max_delay=0.002, default_k=K, **GUARDS
        ) as server:
            # warm-up through the server: its thread's first BLAS calls and
            # the allocator settle outside the timed loop
            for offset in range(0, 16 * BATCH, BATCH):
                batch = nodes[offset:offset + BATCH]
                await asyncio.gather(*(server.top_k(int(node)) for node in batch))

            async def client():
                nonlocal cursor
                while cursor < CLOSED_LOOP_REQUESTS:
                    index = cursor
                    cursor += 1
                    start = time.perf_counter()
                    await server.top_k(int(nodes[index]))
                    latencies[index] = time.perf_counter() - start

            start = time.perf_counter()
            await asyncio.gather(*(client() for _ in range(CLIENTS)))
            return time.perf_counter() - start, server.stats

    elapsed, stats = asyncio.run(scenario())
    p50_ms, p99_ms = np.percentile(latencies, [50, 99]) * 1e3
    print()
    print(
        f"server closed loop, {CLIENTS} clients over the {servable.num_nodes}-node "
        f"engine: {CLOSED_LOOP_REQUESTS / elapsed:.0f} req/sec, p50 {p50_ms:.2f} ms, "
        f"p99 {p99_ms:.2f} ms, {len(engine.threads)} engine thread(s)"
    )
    server_artifact["closed_loop"] = {
        "clients": CLIENTS,
        "requests": CLOSED_LOOP_REQUESTS,
        "requests_per_sec": CLOSED_LOOP_REQUESTS / elapsed,
        "p50_ms": p50_ms,
        "p99_ms": p99_ms,
        "mean_batch_size": stats.mean_batch_size,
        "engine_threads": len(engine.threads),
        "nproc": os.cpu_count(),
    }
    assert len(engine.threads) == 1


class _InstantEngine:
    """Answers every batch from preallocated rows, so only the server costs."""

    max_batch = BATCH

    def __init__(self):
        self._ids = np.zeros((BATCH, K), dtype=np.int64)
        self._scores = np.zeros((BATCH, K), dtype=np.float32)

    def top_k(self, nodes, k, *, metric, exclude_self):
        rows = len(nodes)
        return TopKResult(ids=self._ids[:rows], scores=self._scores[:rows])


def _front_end_us_per_request(guards: dict) -> float:
    """Wall µs per request of a closed loop through a server over the stub."""

    async def closed_loop():
        issued = 0
        async with BatchingServer(
            _InstantEngine(), max_delay=0.002, default_k=K, **guards
        ) as server:

            async def client():
                nonlocal issued
                while issued < FRONT_END_REQUESTS:
                    issued += 1
                    await server.top_k(issued)

            start = time.perf_counter()
            await asyncio.gather(*(client() for _ in range(CLIENTS)))
            return time.perf_counter() - start

    return asyncio.run(closed_loop()) / FRONT_END_REQUESTS * 1e6


def test_server_front_end_cost(server_artifact):
    arms = (GUARDS, {})
    for guards in arms:  # warm-up: server thread, first-call costs
        _front_end_us_per_request(guards)
    micros: tuple[list[float], list[float]] = ([], [])
    for pair in range(FRONT_END_PAIRS):
        for arm in (0, 1) if pair % 2 == 0 else (1, 0):
            micros[arm].append(_front_end_us_per_request(arms[arm]))
    ratio = statistics.median(on / off for on, off in zip(*micros, strict=True))
    guarded_us, bare_us = (statistics.median(arm) for arm in micros)
    print()
    print(
        f"server front end, {CLIENTS} closed-loop clients over an instant engine: "
        f"{guarded_us:.1f} µs/request with guards, {bare_us:.1f} without, "
        f"ratio {ratio:.2f} (median of {FRONT_END_PAIRS} pairs)"
    )
    server_artifact["front_end"] = {
        "clients": CLIENTS,
        "requests_per_arm": FRONT_END_REQUESTS,
        "pairs": FRONT_END_PAIRS,
        "guards": GUARDS,
        "guarded_us_per_request": guarded_us,
        "bare_us_per_request": bare_us,
        "guard_cost_ratio": ratio,
        "ceiling": MAX_GUARD_COST,
        "nproc": os.cpu_count(),
    }
    assert ratio <= MAX_GUARD_COST


def test_serving_is_zero_copy(bench_artifact, tmp_path):
    """Open + 100 queries on a ~50 MB servable allocate < 5% of the payload."""
    num_nodes, dim = 200_000, 64
    rng = np.random.default_rng(0)
    payload = rng.standard_normal((num_nodes, dim)).astype(np.float32)
    path = tmp_path / "pin.servable"
    write_servable(path, {"embeddings": payload}, {"method": None})
    payload_nbytes = payload.nbytes
    del payload

    tracemalloc.start()
    with ServableModel.open(path) as servable:
        engine = servable.query_engine(max_batch=16, block_rows=1024, max_k=K)
        for start in range(0, 100, 16):
            nodes = np.arange(start * 7, start * 7 + 16) % num_nodes
            engine.top_k(nodes, K)
        current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    fraction = peak / payload_nbytes
    print()
    print(
        f"zero-copy pin: payload {payload_nbytes / 1e6:.1f} MB, "
        f"python peak {peak / 1e6:.2f} MB ({fraction * 100:.2f}%)"
    )
    bench_artifact(
        "serving_zero_copy",
        {
            "nodes": num_nodes,
            "embedding_dim": dim,
            "payload_bytes": payload_nbytes,
            "traced_peak_bytes": peak,
            "peak_fraction": fraction,
            "budget_fraction": 0.05,
        },
    )
    assert fraction < 0.05
