"""Tiny feed-forward layer library with manual forward/backward passes.

PyTorch is not available in this environment, so the DP baselines
(DPGGAN, DPGVAE, GAP, ProGAP) are built on this small substrate: dense
layers and element-wise activations.  Each module
implements ``forward`` and ``backward`` explicitly; ``backward`` receives
the gradient of the loss with respect to the module's output and returns
the gradient with respect to its input while accumulating parameter
gradients internally.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import ClassVar

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.math import sigmoid
from ..utils.rng import ensure_rng

__all__ = ["DenseLayer", "Activation"]


class DenseLayer:
    """Fully connected layer ``y = x W + b`` with manual gradients."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"in_features and out_features must be positive, got "
                f"{in_features}/{out_features}"
            )
        rng = ensure_rng(seed)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = rng.uniform(-limit, limit, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute ``x W + b`` and cache ``x`` for the backward pass."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient."""
        if self._input is None:
            raise ConfigurationError("backward called before forward")
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=float))
        self.weight_grad += self._input.T @ grad_output
        self.bias_grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients."""
        self.weight_grad.fill(0.0)
        self.bias_grad.fill(0.0)

    def parameters(self) -> list[np.ndarray]:
        """Return the trainable parameter arrays (views)."""
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        """Return the accumulated gradients aligned with :meth:`parameters`."""
        return [self.weight_grad, self.bias_grad]

    def apply_gradients(self, learning_rate: float) -> None:
        """SGD step on this layer's parameters."""
        self.weight -= learning_rate * self.weight_grad
        self.bias -= learning_rate * self.bias_grad


class Activation:
    """Element-wise activation module: relu, sigmoid, tanh or identity."""

    _FORWARD: ClassVar[dict[str, Callable[[np.ndarray], np.ndarray]]] = {
        "relu": lambda x: np.maximum(x, 0.0),
        "sigmoid": sigmoid,
        "tanh": np.tanh,
        "identity": lambda x: x,
    }

    def __init__(self, kind: str = "relu") -> None:
        key = kind.strip().lower()
        if key not in self._FORWARD:
            raise ConfigurationError(
                f"unknown activation {kind!r}; available: {sorted(self._FORWARD)}"
            )
        self.kind = key
        self._output: np.ndarray | None = None
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the activation element-wise."""
        x = np.asarray(x, dtype=float)
        self._input = x
        self._output = self._FORWARD[self.kind](x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Chain the activation derivative into the incoming gradient."""
        if self._output is None or self._input is None:
            raise ConfigurationError("backward called before forward")
        if self.kind == "relu":
            local = (self._input > 0).astype(float)
        elif self.kind == "sigmoid":
            local = self._output * (1.0 - self._output)
        elif self.kind == "tanh":
            local = 1.0 - self._output**2
        else:
            local = np.ones_like(self._output)
        return np.asarray(grad_output, dtype=float) * local

    def zero_grad(self) -> None:
        """No-op (activations have no parameters)."""

    def parameters(self) -> list[np.ndarray]:
        """Activations have no parameters."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Activations have no gradients."""
        return []

    def apply_gradients(self, learning_rate: float) -> None:
        """No-op (activations have no parameters)."""
