"""Small shared utilities: RNG handling, stable math, CSR lookups, run statistics."""

from .rng import ensure_rng
from .mp import fork_available, serial_fallback
from .math import (
    sigmoid,
    log_sigmoid,
    softmax,
    stable_log,
    clip_norm,
    row_l2_norms,
    pairwise_euclidean,
)
from .sparse import csr_entry_keys, csr_lookup
from .logging import get_logger
from .stats import summarize_runs

__all__ = [
    "csr_entry_keys",
    "csr_lookup",
    "ensure_rng",
    "fork_available",
    "serial_fallback",
    "sigmoid",
    "log_sigmoid",
    "softmax",
    "stable_log",
    "clip_norm",
    "row_l2_norms",
    "pairwise_euclidean",
    "get_logger",
    "summarize_runs",
]
