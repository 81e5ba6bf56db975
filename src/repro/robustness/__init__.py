"""Robustness layer: fault injection and retries.

Production-scale serving and training must degrade, not disintegrate, when
a disk hiccups, a sweep cell fails, or an engine call wedges.  This package
holds the cross-cutting pieces:

* :mod:`repro.robustness.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan` / ``REPRO_FAULTS``) behind named points instrumented
  in :func:`~repro.utils.fileio.atomic_write_path`, the serving engine,
  orchestrator cells, and the privacy ledger; a single inert branch when
  no plan is active.
* :mod:`repro.robustness.retry` — the shared :class:`RetryPolicy`
  (jittered exponential backoff from a seeded stream) used by the
  orchestrator's cell quarantine and the atomic-write publish step.

Both are dependency-light, so the fault registry can be imported from
anywhere — including ``utils.fileio`` itself — without a cycle.
"""

from __future__ import annotations

from .faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    get_active_plan,
    maybe_hit,
    parse_fault_spec,
    register_fault_point,
)
from .retry import RetryPolicy

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "get_active_plan",
    "maybe_hit",
    "parse_fault_spec",
    "register_fault_point",
]
