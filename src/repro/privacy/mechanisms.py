"""Gradient clipping.

Clipping follows DPSGD (Eq. 3): each per-example gradient is scaled to ℓ2
norm at most ``C``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import PrivacyError

__all__ = ["clip_gradient", "clip_rows"]


def clip_gradient(gradient: np.ndarray, threshold: float) -> np.ndarray:
    """Clip a per-example gradient to ℓ2 norm at most ``threshold``.

    Implements ``Clip(g) = g / max(1, ||g||_2 / C)``.
    """
    if threshold <= 0:
        raise PrivacyError(f"clipping threshold must be positive, got {threshold}")
    gradient = np.asarray(gradient, dtype=float)
    norm = float(np.linalg.norm(gradient))
    return gradient / max(1.0, norm / threshold)


def clip_rows(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Clip each row of ``matrix`` independently to ℓ2 norm at most ``threshold``."""
    if threshold <= 0:
        raise PrivacyError(f"clipping threshold must be positive, got {threshold}")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise PrivacyError(f"clip_rows expects a 2-D array, got shape {matrix.shape}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    scales = np.maximum(1.0, norms / threshold)
    return matrix / scales
