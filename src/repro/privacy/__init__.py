"""Differential-privacy machinery: mechanisms, RDP accounting, amplification."""

from .mechanisms import clip_gradient, clip_rows
from .rdp import (
    gaussian_rdp,
    rdp_to_dp,
    dp_to_rdp_budget,
    compose_rdp,
    DEFAULT_ALPHA_GRID,
)
from .subsampling import subsampled_rdp
from .accountant import RdpAccountant, PrivacySpent
from .ledger import PrivacyLedger, LEDGER_FORMAT, LEDGER_VERSION
from .moments import MomentsAccountant
from .sensitivity import (
    batch_gradient_sensitivity,
    per_example_sensitivity,
    node_level_edge_change_bound,
)

__all__ = [
    "clip_gradient",
    "clip_rows",
    "gaussian_rdp",
    "rdp_to_dp",
    "dp_to_rdp_budget",
    "compose_rdp",
    "DEFAULT_ALPHA_GRID",
    "subsampled_rdp",
    "RdpAccountant",
    "PrivacySpent",
    "PrivacyLedger",
    "LEDGER_FORMAT",
    "LEDGER_VERSION",
    "MomentsAccountant",
    "batch_gradient_sensitivity",
    "per_example_sensitivity",
    "node_level_edge_change_bound",
]
