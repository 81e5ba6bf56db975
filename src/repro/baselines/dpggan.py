"""DPGGAN baseline: differentially private graph GAN.

Yang et al. (IJCAI 2021) pair a generator that produces adjacency rows from
latent codes with a discriminator trained on real rows, privatising the
discriminator gradients with DPSGD + the Moments Accountant.  Node
embeddings are read from the generator's latent codes (one learnable code
per node, as in the original implementation).

This numpy reproduction keeps the adversarial structure small:

* per-node latent code ``z_v`` (the embedding being learned),
* generator: ``z_v → dense → sigmoid → fake adjacency row``,
* discriminator: ``row → dense → sigmoid → real/fake``,
* the discriminator step is DPSGD-noised and accounted with MA; training
  stops when the MA budget for half the target (ε, δ) is exhausted, or at
  ``epochs``, whichever comes first.

The paper reports premature convergence under MA at small ε.  Here MA is not
the cause: it is the more permissive bound (at σ = 5, γ = 0.042, ε = 3.5 it
admits 3,148 steps against the Theorem-4 curve's 783).  An early stop comes
from the halved budget and the ``epochs`` cap.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..nn.layers import Activation, DenseLayer
from ..privacy.mechanisms import clip_gradient
from ..privacy.accountant import max_steps_within
from ..privacy.rdp import MOMENTS_ALPHAS, moments_rdp_curve
from ..utils.math import sigmoid, stable_log
from .base import BaselineEmbedder

__all__ = ["DPGGAN"]


class DPGGAN(BaselineEmbedder):
    """Differentially private graph GAN (simplified numpy reproduction)."""

    name = "dpggan"

    def __init__(self, *args, hidden_dim: int = 64, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hidden_dim = int(hidden_dim)

    def _fit_embeddings(self, graph: Graph) -> np.ndarray:
        """Adversarially train the DP graph GAN and return the latent codes."""
        cfg = self.training_config
        privacy = self.privacy_config
        adjacency = np.asarray(graph.adjacency_matrix(dense=True), dtype=float)
        n = graph.num_nodes
        r = cfg.embedding_dim

        latent_codes = self._rng.normal(0.0, 0.1, size=(n, r))
        generator = DenseLayer(r, n, seed=self._rng)
        discriminator_hidden = DenseLayer(n, self.hidden_dim, seed=self._rng)
        discriminator_act = Activation("relu")
        discriminator_out = DenseLayer(self.hidden_dim, 1, seed=self._rng)

        batch_size = min(cfg.batch_size, n)
        # Half the budget pays for the DPSGD discriminator updates, half for
        # privatising the released latent codes (which are per-node
        # parameters updated from each node's own adjacency row).
        training_epsilon = privacy.epsilon / 2.0
        release_epsilon = privacy.epsilon - training_epsilon
        max_steps = max_steps_within(
            moments_rdp_curve(privacy.noise_multiplier, batch_size / n),
            MOMENTS_ALPHAS,
            training_epsilon,
            privacy.delta,
        )
        steps = min(cfg.epochs, max(1, max_steps))
        learning_rate = cfg.learning_rate * 0.1

        disc_layers = [discriminator_hidden, discriminator_out]

        def discriminate(rows: np.ndarray) -> np.ndarray:
            hidden = discriminator_act.forward(discriminator_hidden.forward(rows))
            return sigmoid(discriminator_out.forward(hidden))

        for _ in range(steps):
            nodes = self._rng.choice(n, size=batch_size, replace=False)

            # ---------------- discriminator step (privatised) -------------- #
            per_example_grads: list[list[np.ndarray]] = []
            for node in nodes:
                for layer in disc_layers:
                    layer.zero_grad()
                real_row = adjacency[node : node + 1]
                fake_row = sigmoid(generator.forward(latent_codes[node : node + 1]))

                real_score = discriminate(real_row)
                grad_real = -(1.0 - real_score)  # d/ds of -log σ(s) after sigmoid
                hidden_grad = discriminator_out.backward(grad_real)
                discriminator_hidden.backward(discriminator_act.backward(hidden_grad))

                fake_score = discriminate(fake_row)
                grad_fake = fake_score  # d/ds of -log(1 - σ(s)) after sigmoid
                hidden_grad = discriminator_out.backward(grad_fake)
                discriminator_hidden.backward(discriminator_act.backward(hidden_grad))

                example = [
                    clip_gradient(g, privacy.clipping_threshold)
                    for layer in disc_layers
                    for g in layer.gradients()
                ]
                per_example_grads.append(example)

            summed = [np.zeros_like(g) for g in per_example_grads[0]]
            for example in per_example_grads:
                for target_grad, g in zip(summed, example, strict=True):
                    target_grad += g
            noise_std = privacy.noise_multiplier * privacy.clipping_threshold
            averaged = [
                (g + self._rng.normal(0.0, noise_std, size=g.shape)) / batch_size
                for g in summed
            ]
            idx = 0
            for layer in disc_layers:
                for param in layer.parameters():
                    param -= learning_rate * averaged[idx]
                    idx += 1

            # ---------------- generator / embedding step ------------------- #
            # The generator update is post-processing of the (private)
            # discriminator, so it needs no additional noise (Theorem 2).
            for node in nodes:
                generator.zero_grad()
                code = latent_codes[node : node + 1]
                fake_row = sigmoid(generator.forward(code))
                real_row = adjacency[node : node + 1]
                # Generator wants the fake row to look real *and* match the
                # observed adjacency (auto-encoding term stabilises training).
                fake_score = discriminate(fake_row)
                adversarial_grad = -(1.0 - fake_score)
                recon_grad = (fake_row - real_row) / n
                adversarial_push = float(np.asarray(adversarial_grad).reshape(-1)[0])
                row_grad = recon_grad + 0.1 * adversarial_push * np.ones_like(fake_row) / n
                pre_sigmoid_grad = row_grad * fake_row * (1.0 - fake_row)
                code_grad = generator.backward(pre_sigmoid_grad)
                generator.apply_gradients(learning_rate)
                latent_codes[node] -= learning_rate * code_grad.ravel()

        self._last_loss = float(
            np.mean(-stable_log(discriminate(adjacency)))
        )
        private_codes = self._privatize_output(latent_codes, release_epsilon)
        return self._store(private_codes)
