"""Training-step throughput on the 20k-node benchmark graph.

Measures steps/sec of the engine's zero-allocation workspace step for the
non-private (SE-GEmb) step in both compute dtypes
(``compute_dtype="float64"``, the default, and ``"float32"``), and for the
private (SE-PrivGEmb, non-zero Eq. 9) step, which runs in float64 only.
The private engine averages its iterates, as a private fit does by
default.  A :class:`StepProfiler` rides along on every engine so the
artifact records *where* each step goes (sample / gradients / perturb /
descend, and averaging on the private path), next to the machine's core
count and the Algorithm-1 pool build time.

Nothing is gated: the numbers are a record, not a contract.  The
non-private speedup is the median over seven back-to-back float64/float32
pairs, which shields it from this machine's second-to-second speed drift;
the private steps/s is the median of seven rounds.

``REPRO_FASTPATH_BENCH_NODES`` scales the graph (default 20000); CI smoke
runs a reduced node count.  Recorded headline numbers live in
``RESULTS_fastpath.md``.
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
    IterateAveragingHook,
    PerturbedUpdate,
    StepProfiler,
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


@pytest.fixture(scope="module")
def bench_setup():
    """The benchmark graph with its objective and weighted subgraph pool."""
    graph = load_dataset("smallworld", num_nodes=BENCH_NODES, seed=3)
    proximity = DegreeProximity().compute(graph)
    objective = StructurePreferenceObjective(proximity)

    start = time.perf_counter()
    negative_sampler = UnigramNegativeSampler(graph, seed=0)
    pool = generate_disjoint_subgraph_arrays(
        graph, negative_sampler, BENCH_CONFIG.negative_samples
    )
    pool_seconds = time.perf_counter() - start

    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
    return graph, objective, pool, {"pool_build_seconds": pool_seconds}


def _build_engine(graph, objective, pool, *, dtype, private: bool, seed=0):
    model = SkipGramModel(
        graph.num_nodes, BENCH_CONFIG.embedding_dim, seed=seed, dtype=dtype
    )
    sampler = SubgraphSampler(pool, BENCH_CONFIG.batch_size, seed=seed)
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
    averaging = (IterateAveragingHook(),) if private else ()
    engine = TrainingEngine(
        model=model,
        optimizer=SGDOptimizer(BENCH_CONFIG.learning_rate),
        objective=objective,
        sampler=sampler,
        update_rule=update_rule,
        hooks=(*averaging, profiler),
    )
    return engine, profiler


def _seconds_per_step(engine):
    """Seconds per step of one ``ENGINE_STEPS``-step run."""
    start = time.perf_counter()
    engine.run(ENGINE_STEPS)
    return (time.perf_counter() - start) / ENGINE_STEPS


def _paired_seconds_per_step(engine64, engine32):
    """Median seconds per step of each engine and the median per-pair speedup.

    The engines run in ``PAIRS`` back-to-back pairs, alternating which goes
    first.  This machine's speed drifts by up to 1.5x within seconds, so
    timing all rounds of one engine and then all of the other would let a
    slow stretch land on one arm; within a pair both arms see the same
    machine.
    """
    for engine in (engine64, engine32):
        engine.run(3)  # warm-up: caches, cast pools, BLAS threads
    times64, times32 = [], []
    for pair in range(PAIRS):
        order = [(engine64, times64), (engine32, times32)]
        for engine, times in order[:: -1 if pair % 2 else 1]:
            times.append(_seconds_per_step(engine))
    speedup = statistics.median(a / b for a, b in zip(times64, times32, strict=True))
    return statistics.median(times64), statistics.median(times32), speedup


def _phase_means(profiler):
    profile = profiler.last_profile
    return {} if profile is None else profile.to_dict()["phase_mean_seconds"]


def _report(label, rows):
    print()
    print(
        f"{label} step throughput on the {BENCH_NODES}-node smallworld graph "
        f"(B={BENCH_CONFIG.batch_size}, r={BENCH_CONFIG.embedding_dim}):"
    )
    for name, value, unit in rows:
        print(f"  {name:8s}: {value:10.2f} {unit}")


def _geometry():
    return {
        "nodes": BENCH_NODES,
        "batch_size": BENCH_CONFIG.batch_size,
        "embedding_dim": BENCH_CONFIG.embedding_dim,
        "cpu_count": os.cpu_count(),
    }


def test_fastpath_speedup_nonprivate(bench_artifact, bench_setup):
    graph, objective, pool, pool_timing = bench_setup
    engine64, profiler64 = _build_engine(
        graph, objective, pool, dtype=np.float64, private=False
    )
    engine32, profiler32 = _build_engine(
        graph, objective, pool, dtype=np.float32, private=False
    )
    spp64, spp32, speedup = _paired_seconds_per_step(engine64, engine32)
    _report(
        "SE-GEmb (non-private)",
        [
            ("float64", 1.0 / spp64, "steps/sec"),
            ("float32", 1.0 / spp32, "steps/sec"),
            ("ratio", speedup, "x"),
        ],
    )
    bench_artifact(
        "fastpath_nonprivate",
        {
            **_geometry(),
            "float64_steps_per_sec": 1.0 / spp64,
            "float32_steps_per_sec": 1.0 / spp32,
            "float32_speedup": speedup,
            "float64_phase_mean_seconds": _phase_means(profiler64),
            "float32_phase_mean_seconds": _phase_means(profiler32),
            **pool_timing,
        },
    )


def test_fastpath_speedup_private(bench_artifact, bench_setup):
    """The private step, float64 only: steps/s and where the step goes."""
    graph, objective, pool, _ = bench_setup
    engine, profiler = _build_engine(graph, objective, pool, dtype=np.float64, private=True)
    engine.run(3)  # warm-up: caches, BLAS threads, the noise ring
    spp = statistics.median(_seconds_per_step(engine) for _ in range(PAIRS))
    _report(
        "SE-PrivGEmb (private, non-zero Eq. 9)", [("float64", 1.0 / spp, "steps/sec")]
    )
    bench_artifact(
        "fastpath_private",
        {
            **_geometry(),
            "float64_steps_per_sec": 1.0 / spp,
            "float64_phase_mean_seconds": _phase_means(profiler),
        },
    )
