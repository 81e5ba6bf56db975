"""Throughput of the vectorized training engine vs the seed per-example loop.

Measures private and non-private training steps/sec on a ~2k-node generator
graph and asserts the engine's batched path is at least 5x faster than the
per-example reference loop (the seed implementation, written out here: one
Python-level proximity lookup and Eq. 7 / Eq. 8 gradient per example, then
the same row scatter the seed descended with).
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
from repro.utils.math import log_sigmoid, sigmoid

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
    """The seed's batch source: index into a prebuilt per-example list.

    Each entry is one Algorithm-1 record ``(center, positive, negatives)``,
    built once like the seed's list, so sampling costs the seed's
    ``B`` list lookups per step.
    """

    def __init__(self, pool, batch_size, seed):
        self._subgraphs = [
            (int(center), int(contexts[0]), contexts[1:].copy())
            for center, contexts in zip(pool.centers, pool.contexts, strict=True)
        ]
        self._sampler = SubgraphSampler(pool, batch_size, seed=seed)

    def sample_batch(self):
        return [self._subgraphs[int(i)] for i in self._sampler.sample_indices()]


def _example_gradients(model, objective, subgraph):
    """The seed's per-example step: scalar ``p_ij`` lookup, then Eq. 7 / Eq. 8.

    Returns ``(center, center_gradient, context_nodes, context_gradients,
    loss)`` with the seed's arithmetic, loss included.
    """
    center, positive, negatives = subgraph
    proximity = objective.proximity
    scale = 1.0 / proximity.max_value
    weight = max(proximity.pair_value(center, positive) * scale, objective.weight_floor)
    context_nodes = np.concatenate(([positive], negatives)).astype(np.int64)
    center_vec = model.w_in[center]
    context_vecs = model.w_out[context_nodes]
    scores = context_vecs @ center_vec
    indicators = np.zeros_like(scores)
    indicators[0] = 1.0  # the first context node is the positive v_j
    errors = weight * (sigmoid(scores) - indicators)
    loss = -weight * float(log_sigmoid(scores[0]))
    loss -= weight * float(np.sum(log_sigmoid(-scores[1:])))
    return center, errors @ context_vecs, context_nodes, np.outer(errors, center_vec), loss


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


def _legacy_nonprivate_step(model, rate, objective, sampler):
    batch = sampler.sample_batch()
    centers, center_grads, context_rows, context_grads = [], [], [], []
    for subgraph in batch:
        center, center_grad, context_nodes, context_grad, _ = _example_gradients(
            model, objective, subgraph
        )
        centers.append(center)
        center_grads.append(center_grad)
        context_rows.append(context_nodes)
        context_grads.append(context_grad)
    # the seed's duplicate-safe row scatter
    np.subtract.at(
        model.w_in, np.asarray(centers, dtype=np.int64), rate * np.vstack(center_grads)
    )
    np.subtract.at(model.w_out, np.concatenate(context_rows), rate * np.vstack(context_grads))


def _legacy_private_step(model, rate, objective, sampler, perturbation):
    """The seed's private step: clip, sum and noise one example at a time."""
    batch = sampler.sample_batch()
    threshold = perturbation.clipping_threshold
    std = perturbation.noise_multiplier * perturbation.sensitivity(len(batch))
    sums = (np.zeros_like(model.w_in), np.zeros_like(model.w_out))
    counts = (np.zeros(model.num_nodes), np.zeros(model.num_nodes))
    for subgraph in batch:
        center, center_grad, context_nodes, context_grad, _ = _example_gradients(
            model, objective, subgraph
        )
        sums[0][center] += clip_gradient(center_grad, threshold)
        counts[0][center] += 1
        np.add.at(sums[1], context_nodes, clip_gradient(context_grad, threshold))
        np.add.at(counts[1], context_nodes, 1)
    for parameters, summed, touched in zip((model.w_in, model.w_out), sums, counts, strict=True):
        rows = np.flatnonzero(touched)
        summed[rows] += perturbation.noise.draw((rows.size, model.embedding_dim), std)
        parameters -= rate * (summed / np.maximum(touched, 1.0)[:, None])


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
    rate = BENCH_CONFIG.learning_rate
    legacy_spp = _time_steps(
        lambda: _legacy_nonprivate_step(model, rate, objective, sampler), LEGACY_STEPS
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
    rate = BENCH_CONFIG.learning_rate
    legacy = perturbation()
    legacy_spp = _time_steps(
        lambda: _legacy_private_step(model, rate, objective, sampler, legacy), LEGACY_STEPS
    )

    speedup = _report("SE-PrivGEmb (private)", engine_spp, legacy_spp)
    assert speedup >= MIN_SPEEDUP
