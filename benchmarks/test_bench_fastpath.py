"""Fast-path vs default step throughput on the 20k-node benchmark graph.

Measures steps/sec of the zero-allocation fast path (``fast_path=True`` +
``compute_dtype="float32"``: preallocated :class:`StepWorkspace`, alias
negative draws, partial Fisher–Yates batch indices) against the default
float64 engine, for both the non-private (SE-GEmb) and the private
(SE-PrivGEmb, non-zero Eq. 9) step.  A :class:`StepProfiler` rides along on
every engine so the artifact records *where* each path spends its step
(sample / gradients / perturb / descend).

Floors (relaxable via env on noisy shared runners):

* ``REPRO_BENCH_MIN_FASTPATH_SPEEDUP``       — non-private, default 2.0
  (locally measures ~2.2-2.4x; the dominant win is the compact segment
  descent replacing ``np.subtract.at`` plus float32 gradient math).
* ``REPRO_BENCH_MIN_FASTPATH_PRIV_SPEEDUP``  — private, default 1.2
  (locally ~1.3-1.7x; both engines read their float64 Gaussians from a
  prefetched noise ring, so the noise no longer bounds the private step).

The gated speedup is the median over seven back-to-back default/fast
pairs, which shields it from this machine's second-to-second speed drift.

``REPRO_FASTPATH_BENCH_NODES`` scales the graph (default 20000); CI smoke
runs a reduced node count with the same assertions.  Recorded headline
numbers live in ``RESULTS_fastpath.md``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro import PrivacyConfig, TrainingConfig
from repro.embedding import SGDOptimizer, SkipGramModel, get_perturbation
from repro.embedding.objectives import StructurePreferenceObjective
from repro.engine import (
    DirectSparseUpdate,
    PerturbedUpdate,
    StepProfiler,
    StepWorkspace,
    TrainingEngine,
)
from repro.graph import load_dataset
from repro.graph.sampling import (
    SubgraphSampler,
    UnigramNegativeSampler,
    generate_disjoint_subgraph_arrays,
)
from repro.proximity import DegreeProximity

BENCH_NODES = int(os.environ.get("REPRO_FASTPATH_BENCH_NODES", "20000"))
BENCH_CONFIG = TrainingConfig(
    embedding_dim=64, batch_size=1024, learning_rate=0.1, negative_samples=5, epochs=1
)
BENCH_PRIVACY = PrivacyConfig(
    epsilon=3.5, delta=1e-5, noise_multiplier=5.0, clipping_threshold=2.0
)
ENGINE_STEPS = 25
PAIRS = 7
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_FASTPATH_SPEEDUP", "2.0"))
MIN_PRIV_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_FASTPATH_PRIV_SPEEDUP", "1.2"))


@pytest.fixture(scope="module")
def bench_setup():
    """The benchmark graph with its objective and weighted subgraph pool."""
    graph = load_dataset("smallworld", num_nodes=BENCH_NODES, seed=3)
    proximity = DegreeProximity().compute(graph)
    objective = StructurePreferenceObjective(proximity)

    start = time.perf_counter()
    searchsorted_sampler = UnigramNegativeSampler(graph, seed=0)
    pool = generate_disjoint_subgraph_arrays(
        graph, searchsorted_sampler, BENCH_CONFIG.negative_samples
    )
    searchsorted_seconds = time.perf_counter() - start

    start = time.perf_counter()
    alias_sampler = UnigramNegativeSampler(graph, seed=0, use_alias=True)
    generate_disjoint_subgraph_arrays(
        graph, alias_sampler, BENCH_CONFIG.negative_samples
    )
    alias_seconds = time.perf_counter() - start

    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
    pool_timings = {
        "pool_build_searchsorted_seconds": searchsorted_seconds,
        "pool_build_alias_seconds": alias_seconds,
    }
    return graph, objective, pool, pool_timings


def _build_engine(graph, objective, pool, *, fast: bool, private: bool, seed=0):
    dtype = np.float32 if fast else np.float64
    model = SkipGramModel(
        graph.num_nodes, BENCH_CONFIG.embedding_dim, seed=seed, dtype=dtype
    )
    sampler = SubgraphSampler(pool, BENCH_CONFIG.batch_size, seed=seed, fast_path=fast)
    workspace = None
    if fast:
        workspace = StepWorkspace(
            batch_size=sampler.batch_size,
            num_negatives=pool.num_negatives,
            embedding_dim=BENCH_CONFIG.embedding_dim,
            num_nodes=graph.num_nodes,
            dtype=dtype,
        )
    if private:
        update_rule = PerturbedUpdate(
            get_perturbation(
                "nonzero",
                clipping_threshold=BENCH_PRIVACY.clipping_threshold,
                noise_multiplier=BENCH_PRIVACY.noise_multiplier,
                seed=seed,
            )
        )
    else:
        update_rule = DirectSparseUpdate()
    profiler = StepProfiler()
    engine = TrainingEngine(
        model=model,
        optimizer=SGDOptimizer(BENCH_CONFIG.learning_rate),
        objective=objective,
        sampler=sampler,
        update_rule=update_rule,
        hooks=(profiler,),
        workspace=workspace,
    )
    return engine, profiler


def _paired_seconds_per_step(default_engine, fast_engine):
    """Median seconds per step of each engine and the median per-pair speedup.

    The engines run in ``PAIRS`` back-to-back pairs, alternating which goes
    first.  This machine's speed drifts by up to 1.5x within seconds, so
    timing all rounds of one engine and then all of the other let a slow
    stretch land on one arm (2.0x floor, 1.58x measured in a full suite
    run, 2.2-3.4x alone); within a pair both arms see the same machine.
    """
    for engine in (default_engine, fast_engine):
        engine.run(3)  # warm-up: caches, cast pools, BLAS threads
    default_times, fast_times = [], []
    for pair in range(PAIRS):
        order = [(default_engine, default_times), (fast_engine, fast_times)]
        for engine, times in order[:: -1 if pair % 2 else 1]:
            start = time.perf_counter()
            engine.run(ENGINE_STEPS)
            times.append((time.perf_counter() - start) / ENGINE_STEPS)
    speedup = statistics.median(
        d / f for d, f in zip(default_times, fast_times, strict=True)
    )
    return statistics.median(default_times), statistics.median(fast_times), speedup


def _phase_means(profiler):
    profile = profiler.last_profile
    return {} if profile is None else profile.to_dict()["phase_mean_seconds"]


def _report(label, default_spp, fast_spp, speedup):
    print()
    print(
        f"{label} step throughput on the {BENCH_NODES}-node smallworld graph "
        f"(B={BENCH_CONFIG.batch_size}, r={BENCH_CONFIG.embedding_dim}):"
    )
    print(f"  default float64 engine : {1.0 / default_spp:10.1f} steps/sec")
    print(f"  fast-path float32      : {1.0 / fast_spp:10.1f} steps/sec")
    print(f"  speedup                : {speedup:10.2f}x")


def test_fastpath_speedup_nonprivate(bench_artifact, bench_setup):
    graph, objective, pool, pool_timings = bench_setup
    default_engine, default_profiler = _build_engine(
        graph, objective, pool, fast=False, private=False
    )
    fast_engine, fast_profiler = _build_engine(
        graph, objective, pool, fast=True, private=False
    )
    default_spp, fast_spp, speedup = _paired_seconds_per_step(default_engine, fast_engine)
    _report("SE-GEmb (non-private)", default_spp, fast_spp, speedup)
    bench_artifact(
        "fastpath_nonprivate",
        {
            "nodes": BENCH_NODES,
            "batch_size": BENCH_CONFIG.batch_size,
            "embedding_dim": BENCH_CONFIG.embedding_dim,
            "default_steps_per_sec": 1.0 / default_spp,
            "fast_steps_per_sec": 1.0 / fast_spp,
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
            "default_phase_mean_seconds": _phase_means(default_profiler),
            "fast_phase_mean_seconds": _phase_means(fast_profiler),
            **pool_timings,
        },
    )
    assert speedup >= MIN_SPEEDUP


def test_fastpath_speedup_private(bench_artifact, bench_setup):
    graph, objective, pool, _ = bench_setup
    default_engine, default_profiler = _build_engine(
        graph, objective, pool, fast=False, private=True
    )
    fast_engine, fast_profiler = _build_engine(
        graph, objective, pool, fast=True, private=True
    )
    default_spp, fast_spp, speedup = _paired_seconds_per_step(default_engine, fast_engine)
    _report("SE-PrivGEmb (private, non-zero Eq. 9)", default_spp, fast_spp, speedup)
    bench_artifact(
        "fastpath_private",
        {
            "nodes": BENCH_NODES,
            "batch_size": BENCH_CONFIG.batch_size,
            "embedding_dim": BENCH_CONFIG.embedding_dim,
            "default_steps_per_sec": 1.0 / default_spp,
            "fast_steps_per_sec": 1.0 / fast_spp,
            "speedup": speedup,
            "floor": MIN_PRIV_SPEEDUP,
            "default_phase_mean_seconds": _phase_means(default_profiler),
            "fast_phase_mean_seconds": _phase_means(fast_profiler),
        },
    )
    assert speedup >= MIN_PRIV_SPEEDUP
