"""Repo-specific static analysis: the invariant linter.

``python -m repro.analysis [paths]`` walks Python sources with a small
AST rule framework and enforces the conventions the test suite can only
spot-check:

========  ==============================================================
RNG001    randomness arrives via seeded ``utils.rng`` streams — no
          legacy ``np.random.*`` global state, no unseeded
          ``default_rng()``
PRIV001   no float32 introduced in ``privacy/`` or
          ``embedding/perturbation.py`` — DP noise, sensitivity and
          accounting stay float64
ALLOC001  functions marked ``@zero_alloc`` perform no array
          allocations (workspace ``out=`` discipline)
FP001     ``fingerprint*`` / ``group_key`` functions iterate mappings
          only via ``sorted(...)`` / ``json.dumps(sort_keys=True)``
========  ==============================================================

Inline suppressions need a written reason
(``# repro-lint: disable=RULE -- reason``), and a checked-in baseline
(:mod:`repro.analysis.baseline`) grandfathers known findings with
per-entry justifications.  The package is stdlib-only by design.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineEntry
from .findings import Finding, ModuleContext
from .markers import zero_alloc
from .rules import RULE_REGISTRY, Rule, all_rules, get_rule, register_rule
from .runner import AnalysisReport, analyze_paths, iter_python_files

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleContext",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "analyze_paths",
    "get_rule",
    "iter_python_files",
    "register_rule",
    "zero_alloc",
]
