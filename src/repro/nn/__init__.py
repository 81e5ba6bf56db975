"""Minimal neural-network substrate (pure numpy) used by the DP baselines."""

from .layers import DenseLayer, Activation
from .gcn import normalized_adjacency, GCNLayer, GCNEncoder

__all__ = [
    "DenseLayer",
    "Activation",
    "normalized_adjacency",
    "GCNLayer",
    "GCNEncoder",
]
