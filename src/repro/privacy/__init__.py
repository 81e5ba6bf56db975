"""Differential-privacy machinery: mechanisms, RDP accounting, amplification."""

from .mechanisms import clip_gradient, clip_rows
from .rdp import (
    gaussian_rdp,
    moments_rdp_curve,
    rdp_to_dp,
    dp_to_rdp_budget,
    compose_rdp,
    DEFAULT_ALPHA_GRID,
    MOMENTS_ALPHAS,
)
from .subsampling import subsampled_rdp
from .accountant import RdpAccountant, PrivacySpent, max_steps_within
from .ledger import PrivacyLedger, LEDGER_FORMAT, LEDGER_VERSION
from .sensitivity import (
    batch_gradient_sensitivity,
    per_example_sensitivity,
    node_level_edge_change_bound,
)

__all__ = [
    "clip_gradient",
    "clip_rows",
    "gaussian_rdp",
    "moments_rdp_curve",
    "rdp_to_dp",
    "dp_to_rdp_budget",
    "compose_rdp",
    "DEFAULT_ALPHA_GRID",
    "MOMENTS_ALPHAS",
    "subsampled_rdp",
    "RdpAccountant",
    "PrivacySpent",
    "max_steps_within",
    "PrivacyLedger",
    "LEDGER_FORMAT",
    "LEDGER_VERSION",
    "batch_gradient_sensitivity",
    "per_example_sensitivity",
    "node_level_edge_change_bound",
]
