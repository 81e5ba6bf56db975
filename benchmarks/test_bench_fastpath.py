"""Training-step throughput on the 20k-node benchmark graph, float64 and float32.

Measures steps/sec of the engine's zero-allocation workspace step in both
compute dtypes (``compute_dtype="float64"``, the default, and
``"float32"``), for the non-private (SE-GEmb) and the private
(SE-PrivGEmb, non-zero Eq. 9) step.  A :class:`StepProfiler` rides along on
every engine so the artifact records *where* each dtype spends its step
(sample / gradients / perturb / descend), next to the machine's core count
and the Algorithm-1 pool build time.

Nothing is gated: the ratio of two dtypes on one path is a record, not a
contract.  The reported speedup is the median over seven back-to-back
float64/float32 pairs, which shields it from this machine's
second-to-second speed drift.

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
    engine = TrainingEngine(
        model=model,
        optimizer=SGDOptimizer(BENCH_CONFIG.learning_rate),
        objective=objective,
        sampler=sampler,
        update_rule=update_rule,
        hooks=(profiler,),
    )
    return engine, profiler


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
            start = time.perf_counter()
            engine.run(ENGINE_STEPS)
            times.append((time.perf_counter() - start) / ENGINE_STEPS)
    speedup = statistics.median(a / b for a, b in zip(times64, times32, strict=True))
    return statistics.median(times64), statistics.median(times32), speedup


def _phase_means(profiler):
    profile = profiler.last_profile
    return {} if profile is None else profile.to_dict()["phase_mean_seconds"]


def _report(label, spp64, spp32, speedup):
    print()
    print(
        f"{label} step throughput on the {BENCH_NODES}-node smallworld graph "
        f"(B={BENCH_CONFIG.batch_size}, r={BENCH_CONFIG.embedding_dim}):"
    )
    print(f"  float64 : {1.0 / spp64:10.1f} steps/sec")
    print(f"  float32 : {1.0 / spp32:10.1f} steps/sec")
    print(f"  ratio   : {speedup:10.2f}x")


def _measure(bench_artifact, bench_setup, *, private, label, name, extra=None):
    graph, objective, pool, _ = bench_setup
    engine64, profiler64 = _build_engine(
        graph, objective, pool, dtype=np.float64, private=private
    )
    engine32, profiler32 = _build_engine(
        graph, objective, pool, dtype=np.float32, private=private
    )
    spp64, spp32, speedup = _paired_seconds_per_step(engine64, engine32)
    _report(label, spp64, spp32, speedup)
    bench_artifact(
        name,
        {
            "nodes": BENCH_NODES,
            "batch_size": BENCH_CONFIG.batch_size,
            "embedding_dim": BENCH_CONFIG.embedding_dim,
            "cpu_count": os.cpu_count(),
            "float64_steps_per_sec": 1.0 / spp64,
            "float32_steps_per_sec": 1.0 / spp32,
            "float32_speedup": speedup,
            "float64_phase_mean_seconds": _phase_means(profiler64),
            "float32_phase_mean_seconds": _phase_means(profiler32),
            **(extra or {}),
        },
    )


def test_fastpath_speedup_nonprivate(bench_artifact, bench_setup):
    _measure(
        bench_artifact, bench_setup, private=False, label="SE-GEmb (non-private)",
        name="fastpath_nonprivate", extra=bench_setup[3],
    )


def test_fastpath_speedup_private(bench_artifact, bench_setup):
    _measure(
        bench_artifact, bench_setup, private=True,
        label="SE-PrivGEmb (private, non-zero Eq. 9)", name="fastpath_private",
    )
