"""Tests for the numpy NN substrate (layers, GCN)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConfigurationError
from repro.nn import (
    Activation,
    DenseLayer,
    GCNEncoder,
    GCNLayer,
    normalized_adjacency,
)


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = f(x)
        x[idx] = original - eps
        minus = f(x)
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDenseLayer:
    def test_forward_shape_and_value(self):
        layer = DenseLayer(3, 2, seed=0)
        layer.weight = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1 + 3 + 0.5, 2 + 3 - 0.5]])

    def test_backward_matches_numerical_gradient(self, rng):
        layer = DenseLayer(4, 3, seed=1)
        x = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 3))

        def loss_for_weight(w):
            saved = layer.weight
            layer.weight = w
            out = layer.forward(x)
            layer.weight = saved
            return float(np.sum((out - target) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(2.0 * (out - target))
        numeric = numerical_gradient(loss_for_weight, layer.weight.copy())
        np.testing.assert_allclose(layer.weight_grad, numeric, atol=1e-5)

    def test_input_gradient_matches_numerical(self, rng):
        layer = DenseLayer(3, 2, seed=2)
        x = rng.normal(size=(1, 3))
        target = rng.normal(size=(1, 2))

        def loss_for_input(xx):
            return float(np.sum((layer.forward(xx) - target) ** 2))

        out = layer.forward(x)
        grad_in = layer.backward(2.0 * (out - target))
        numeric = numerical_gradient(loss_for_input, x.copy())
        np.testing.assert_allclose(grad_in, numeric, atol=1e-5)

    def test_backward_before_forward_raises(self):
        layer = DenseLayer(2, 2, seed=0)
        with pytest.raises(ConfigurationError):
            layer.backward(np.ones((1, 2)))

    def test_apply_gradients_moves_parameters(self):
        layer = DenseLayer(2, 2, seed=0)
        before = layer.weight.copy()
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        layer.apply_gradients(0.1)
        assert not np.allclose(layer.weight, before)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            DenseLayer(0, 3)


class TestActivation:
    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "identity"])
    def test_backward_matches_numerical(self, kind, rng):
        act = Activation(kind)
        x = rng.normal(size=(2, 3))

        def scalar_loss(xx):
            return float(np.sum(Activation(kind).forward(xx) ** 2))

        out = act.forward(x)
        grad = act.backward(2.0 * out)
        numeric = numerical_gradient(scalar_loss, x.copy())
        np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_relu_zeroes_negatives(self):
        act = Activation("relu")
        np.testing.assert_allclose(act.forward(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_unknown_activation_raises(self):
        with pytest.raises(ConfigurationError):
            Activation("swish")


class TestGCN:
    def test_normalized_adjacency_properties(self, small_graph):
        norm = normalized_adjacency(small_graph)
        n = small_graph.num_nodes
        assert norm.shape == (n, n)
        np.testing.assert_allclose(norm, norm.T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-8

    def test_gcn_layer_output_shape(self, small_graph, rng):
        norm = normalized_adjacency(small_graph)
        features = rng.normal(size=(small_graph.num_nodes, 6))
        layer = GCNLayer(6, 4, seed=0)
        out = layer.forward(norm, features)
        assert out.shape == (small_graph.num_nodes, 4)

    def test_encoder_stacks_layers(self, small_graph, rng):
        norm = normalized_adjacency(small_graph)
        features = rng.normal(size=(small_graph.num_nodes, 8))
        encoder = GCNEncoder([8, 16, 4], seed=0)
        out = encoder.encode(norm, features)
        assert out.shape == (small_graph.num_nodes, 4)

    def test_aggregation_hook_is_applied(self, small_graph, rng):
        norm = normalized_adjacency(small_graph)
        features = rng.normal(size=(small_graph.num_nodes, 8))
        encoder = GCNEncoder([8, 4], seed=0)
        calls = []

        def hook(agg):
            calls.append(agg.shape)
            return agg * 0.0

        out = encoder.encode(norm, features, aggregation_hook=hook)
        assert len(calls) == 1
        # zeroed aggregation through a linear layer gives only the bias (zeros)
        np.testing.assert_allclose(out, np.zeros_like(out), atol=1e-12)

    def test_encoder_rejects_short_layer_list(self):
        with pytest.raises(ConfigurationError):
            GCNEncoder([8])
