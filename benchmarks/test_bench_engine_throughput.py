"""Throughput of the vectorized training engine vs the seed per-example loop.

Measures private and non-private training steps/sec on a ~2k-node generator
graph and asserts the engine's batched path is at least 5x faster than the
per-example reference loop (the seed implementation, reproduced here with
the same objective / perturbation primitives it used).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import TrainingConfig
from repro.embedding import SkipGramModel, SGDOptimizer, get_perturbation
from repro.embedding.objectives import StructurePreferenceObjective
from repro.graph import load_dataset
from repro.graph.sampling import SubgraphSampler, UnigramNegativeSampler, generate_disjoint_subgraph_arrays
from repro.engine import DirectSparseUpdate, PerturbedUpdate, TrainingEngine
from repro.privacy.mechanisms import clip_gradient
from repro.proximity import DegreeProximity

BENCH_CONFIG = TrainingConfig(
    embedding_dim=64, batch_size=1024, learning_rate=0.1, negative_samples=5, epochs=1
)
ENGINE_STEPS = 30
LEGACY_STEPS = 10
# Locally the engine measures ~7-11x; the assertion floor can be relaxed on
# noisy shared runners (e.g. CI sets REPRO_BENCH_MIN_SPEEDUP=3) where
# wall-clock ratios are unreliable, without turning the check off entirely.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))


@pytest.fixture(scope="module")
def bench_setup():
    """A ~2k-node generator graph with its objective and subgraph pool."""
    graph = load_dataset("smallworld", num_nodes=2000, seed=3)
    proximity = DegreeProximity().compute(graph)
    objective = StructurePreferenceObjective(proximity)
    negative_sampler = UnigramNegativeSampler(graph, seed=0)
    pool = generate_disjoint_subgraph_arrays(
        graph, negative_sampler, BENCH_CONFIG.negative_samples
    )
    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
    return graph, objective, pool


def _fresh_model_sampler(graph, pool, seed=0):
    model = SkipGramModel(graph.num_nodes, BENCH_CONFIG.embedding_dim, seed=seed)
    sampler = SubgraphSampler(pool, BENCH_CONFIG.batch_size, seed=seed)
    return model, sampler


class _LegacySampler:
    """The seed's batch source: index into a prebuilt dataclass list.

    ``SubgraphSampler.sample_batch`` now materialises fresh dataclasses per
    call; the seed indexed a list built once, so the baseline must too or
    the measured speedup would be inflated by compat-shim overhead.
    """

    def __init__(self, pool, batch_size, seed):
        self._subgraphs = pool.to_subgraphs()
        self._sampler = SubgraphSampler(pool, batch_size, seed=seed)

    def sample_batch(self):
        return [self._subgraphs[int(i)] for i in self._sampler.sample_indices()]


def _time_steps(step, count, repeats=3):
    """Return best-of-``repeats`` seconds per step of ``step()``.

    The minimum over repeated timed chunks is robust against transient
    CPU contention, which matters because the test asserts a ratio.
    """
    step()  # warm-up outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(count):
            step()
        best = min(best, (time.perf_counter() - start) / count)
    return best


def _legacy_nonprivate_step(model, optimizer, objective, sampler):
    batch = sampler.sample_batch()
    centers, center_grads, context_rows, context_grads = [], [], [], []
    for subgraph in batch:
        grads = objective.example_gradients(model.w_in, model.w_out, subgraph)
        centers.append(grads.center)
        center_grads.append(grads.center_gradient)
        context_rows.append(grads.context_nodes)
        context_grads.append(grads.context_gradients)
    optimizer.descend_rows(
        model.w_in, np.asarray(centers, dtype=np.int64), np.vstack(center_grads)
    )
    optimizer.descend_rows(model.w_out, np.concatenate(context_rows), np.vstack(context_grads))
    optimizer.step_epoch()


def _legacy_private_step(model, optimizer, objective, sampler, perturbation):
    """The seed's private step: clip, sum and noise one example at a time."""
    batch = sampler.sample_batch()
    threshold = perturbation.clipping_threshold
    std = perturbation.noise_multiplier * perturbation.sensitivity(len(batch))
    sums = (np.zeros_like(model.w_in), np.zeros_like(model.w_out))
    counts = (np.zeros(model.num_nodes), np.zeros(model.num_nodes))
    for subgraph in batch:
        grads = objective.example_gradients(model.w_in, model.w_out, subgraph)
        sums[0][grads.center] += clip_gradient(grads.center_gradient, threshold)
        counts[0][grads.center] += 1
        np.add.at(sums[1], grads.context_nodes, clip_gradient(grads.context_gradients, threshold))
        np.add.at(counts[1], grads.context_nodes, 1)
    for parameters, summed, touched in zip((model.w_in, model.w_out), sums, counts, strict=True):
        rows = np.flatnonzero(touched)
        summed[rows] += perturbation.noise.draw((rows.size, model.embedding_dim), std)
        optimizer.descend(parameters, summed / np.maximum(touched, 1.0)[:, None])
    optimizer.step_epoch()


def _report(label, engine_spp, legacy_spp):
    speedup = legacy_spp / engine_spp
    print()
    print(f"{label} throughput on 2000-node smallworld graph (B={BENCH_CONFIG.batch_size}):")
    print(f"  per-example loop : {1.0 / legacy_spp:10.1f} steps/sec")
    print(f"  vectorized engine: {1.0 / engine_spp:10.1f} steps/sec")
    print(f"  speedup          : {speedup:10.1f}x")
    return speedup


def test_engine_throughput_nonprivate(benchmark, bench_setup):
    graph, objective, pool = bench_setup

    model, sampler = _fresh_model_sampler(graph, pool)
    engine = TrainingEngine(
        model=model,
        optimizer=SGDOptimizer(BENCH_CONFIG.learning_rate),
        objective=objective,
        sampler=sampler,
        update_rule=DirectSparseUpdate(),
    )
    benchmark.pedantic(lambda: engine.run(ENGINE_STEPS), rounds=3, iterations=1)
    engine_spp = benchmark.stats.stats.min / ENGINE_STEPS

    model = SkipGramModel(graph.num_nodes, BENCH_CONFIG.embedding_dim, seed=0)
    sampler = _LegacySampler(pool, BENCH_CONFIG.batch_size, seed=0)
    optimizer = SGDOptimizer(BENCH_CONFIG.learning_rate)
    legacy_spp = _time_steps(
        lambda: _legacy_nonprivate_step(model, optimizer, objective, sampler), LEGACY_STEPS
    )

    speedup = _report("SE-GEmb (non-private)", engine_spp, legacy_spp)
    assert speedup >= MIN_SPEEDUP


def test_engine_throughput_private(benchmark, bench_setup):
    graph, objective, pool = bench_setup

    def perturbation():
        return get_perturbation("nonzero", clipping_threshold=2.0, noise_multiplier=5.0, seed=0)

    model, sampler = _fresh_model_sampler(graph, pool)
    engine = TrainingEngine(
        model=model,
        optimizer=SGDOptimizer(BENCH_CONFIG.learning_rate),
        objective=objective,
        sampler=sampler,
        update_rule=PerturbedUpdate(perturbation()),
    )
    benchmark.pedantic(lambda: engine.run(ENGINE_STEPS), rounds=3, iterations=1)
    engine_spp = benchmark.stats.stats.min / ENGINE_STEPS

    model = SkipGramModel(graph.num_nodes, BENCH_CONFIG.embedding_dim, seed=0)
    sampler = _LegacySampler(pool, BENCH_CONFIG.batch_size, seed=0)
    optimizer = SGDOptimizer(BENCH_CONFIG.learning_rate)
    legacy = perturbation()
    legacy_spp = _time_steps(
        lambda: _legacy_private_step(model, optimizer, objective, sampler, legacy), LEGACY_STEPS
    )

    speedup = _report("SE-PrivGEmb (private)", engine_spp, legacy_spp)
    assert speedup >= MIN_SPEEDUP
