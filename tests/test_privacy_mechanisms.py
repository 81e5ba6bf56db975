"""Tests for clipping and sensitivity helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, PrivacyError
from repro.privacy import (
    batch_gradient_sensitivity,
    clip_gradient,
    clip_rows,
    node_level_edge_change_bound,
    per_example_sensitivity,
)


class TestClipping:
    def test_clip_gradient_norm_bound(self, rng):
        g = rng.normal(size=20) * 10
        clipped = clip_gradient(g, 1.5)
        assert np.linalg.norm(clipped) <= 1.5 + 1e-9

    def test_clip_gradient_small_vector_unchanged(self):
        g = np.array([0.1, -0.2, 0.05])
        np.testing.assert_allclose(clip_gradient(g, 5.0), g)

    def test_clip_rows_each_row_bounded(self, rng):
        m = rng.normal(size=(6, 4)) * 100
        clipped = clip_rows(m, 2.0)
        assert np.all(np.linalg.norm(clipped, axis=1) <= 2.0 + 1e-9)

    def test_clip_rows_preserves_direction(self):
        m = np.array([[3.0, 4.0], [0.3, 0.4]])
        clipped = clip_rows(m, 1.0)
        np.testing.assert_allclose(clipped[0], [0.6, 0.8])
        np.testing.assert_allclose(clipped[1], [0.3, 0.4])

    def test_invalid_threshold_raises(self):
        with pytest.raises(PrivacyError):
            clip_gradient(np.ones(3), 0.0)
        with pytest.raises(PrivacyError):
            clip_rows(np.ones((2, 2)), -1.0)

    def test_clip_rows_rejects_1d(self):
        with pytest.raises(PrivacyError):
            clip_rows(np.ones(5), 1.0)


class TestSensitivityHelpers:
    def test_per_example_sensitivity_is_clipping_threshold(self):
        assert per_example_sensitivity(2.0) == pytest.approx(2.0)
        with pytest.raises(PrivacyError):
            per_example_sensitivity(0.0)

    def test_batch_sensitivity_worst_case(self):
        assert batch_gradient_sensitivity(2.0, 128) == pytest.approx(256.0)

    def test_batch_sensitivity_with_affected_cap(self):
        assert batch_gradient_sensitivity(2.0, 128, affected_examples=10) == pytest.approx(20.0)
        assert batch_gradient_sensitivity(2.0, 8, affected_examples=100) == pytest.approx(16.0)

    def test_batch_sensitivity_invalid_inputs(self):
        with pytest.raises(PrivacyError):
            batch_gradient_sensitivity(2.0, 0)
        with pytest.raises(PrivacyError):
            batch_gradient_sensitivity(-1.0, 4)

    def test_node_level_edge_change_bound_is_max_degree(self, star_graph):
        assert node_level_edge_change_bound(star_graph) == 5

    def test_node_level_bound_empty_graph(self):
        assert node_level_edge_change_bound(Graph(3, [])) == 0
