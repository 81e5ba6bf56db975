"""Illustration of the private update of W_in (the paper's Figure 2).

Builds one batch of edge subgraphs, computes the structure-preference
gradients, and shows how the two perturbation strategies treat the gradient
matrix differently:

* naive (Eq. 6): every row of the gradient receives Gaussian noise calibrated
  to sensitivity B·C, including rows whose true gradient is exactly zero;
* non-zero (Eq. 9): only rows actually touched by the batch receive noise,
  calibrated to sensitivity C.

Run with:

    python examples/perturbation_illustration.py
"""

from __future__ import annotations

import numpy as np

from repro import TrainingConfig, load_dataset
from repro.embedding.objectives import StructurePreferenceObjective
from repro.embedding.perturbation import NaivePerturbation, NonZeroPerturbation
from repro.embedding.skipgram import SkipGramModel
from repro.engine import StepWorkspace
from repro.graph.sampling import (
    SubgraphSampler,
    UnigramNegativeSampler,
    generate_disjoint_subgraph_arrays,
)
from repro.proximity import DeepWalkProximity


def main() -> None:
    graph = load_dataset("smallworld", num_nodes=40, seed=0)
    config = TrainingConfig(embedding_dim=3, batch_size=8, negative_samples=2, epochs=1)

    proximity = DeepWalkProximity(window_size=3).compute(graph)
    objective = StructurePreferenceObjective(proximity)
    model = SkipGramModel(graph.num_nodes, config.embedding_dim, seed=0)

    sampler = UnigramNegativeSampler(graph, seed=0)
    pool = generate_disjoint_subgraph_arrays(graph, sampler, config.negative_samples)
    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))

    def noisy_w_in_gradient(strategy):
        """One training step's noisy summed W_in gradient as a dense matrix."""
        # same seed, same batch for both strategies
        batch_sampler = SubgraphSampler(pool, config.batch_size, seed=0)
        workspace = StepWorkspace.for_training(model, batch_sampler)
        batch = batch_sampler.sample_batch_arrays(workspace)
        gradients = objective.batch_gradients(
            model.w_in, model.w_out, batch, workspace=workspace
        )
        perturbed = strategy.perturb_batch(gradients, workspace)
        dense = np.zeros_like(model.w_in)
        dense[perturbed.w_in_rows] = perturbed.w_in_sums
        return dense, batch

    naive = NaivePerturbation(clipping_threshold=2.0, noise_multiplier=5.0, seed=1)
    nonzero = NonZeroPerturbation(clipping_threshold=2.0, noise_multiplier=5.0, seed=1)
    naive_grad, batch = noisy_w_in_gradient(naive)
    nonzero_grad, _ = noisy_w_in_gradient(nonzero)
    touched = np.unique(batch.centers).tolist()
    print(f"Batch of {len(batch)} edges touches W_in rows: {touched}\n")

    np.set_printoptions(precision=3, suppress=True)
    show = min(10, graph.num_nodes)
    print(f"Naive perturbation (Eq. 6), sensitivity B·C = {naive.sensitivity(len(batch)):.0f}")
    print("first rows of the noisy W_in gradient (every row is noisy):")
    print(naive_grad[:show])
    print()
    print(f"Non-zero perturbation (Eq. 9), sensitivity C = {nonzero.sensitivity(len(batch)):.0f}")
    print("first rows of the noisy W_in gradient (untouched rows stay exactly zero):")
    print(nonzero_grad[:show])
    print()
    ratio = np.linalg.norm(naive_grad) / np.linalg.norm(nonzero_grad)
    print(f"Frobenius-norm ratio naive / non-zero: {ratio:.1f}x more noise under Eq. (6)")


if __name__ == "__main__":
    main()
