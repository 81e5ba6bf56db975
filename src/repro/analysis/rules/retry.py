"""RETRY001: persistence-path ``except OSError`` must be retry-aware.

PR 10 added the shared :class:`~repro.robustness.retry.RetryPolicy` so the
decision "is this I/O failure transient?" lives in one classified place
instead of scattered bare handlers.  On the modules that persist state —
the atomic-write layer, the run store, the proximity cache, the servable
store, the privacy ledger, model artifacts — an ``except OSError`` that
neither sits in retry-aware code (the enclosing ``try`` references a
``retry`` identifier) nor carries a written suppression is a silent place
for transient faults to become permanent data loss.  The rule does not
demand that every handler retries — a read-only startup path or a
best-effort cleanup legitimately should not — it demands that the
*decision is written down*: route through ``RetryPolicy`` or suppress
with a reason.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from collections.abc import Iterator

from ..findings import Finding, ModuleContext
from . import Rule, register_rule

__all__ = ["PersistenceRetryRule"]

#: modules whose OSError handling sits on a persistence path (display-path
#: suffixes; the rule applies to nothing else)
_PERSISTENCE_MODULES = (
    "utils/fileio.py",
    "experiments/store.py",
    "proximity/cache.py",
    "serving/store.py",
    "privacy/ledger.py",
    "models/artifacts.py",
)


def _names_oserror(handler: ast.ExceptHandler) -> bool:
    """Does this handler catch ``OSError`` (alone or in a tuple)?"""
    node = handler.type
    if node is None:
        return False
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id == "OSError":
            return True
        if isinstance(candidate, ast.Attribute) and candidate.attr == "OSError":
            return True
    return False


def _references_retry(scope: ast.AST) -> bool:
    """Any identifier in ``scope`` containing "retry" (case-insensitive)."""
    for node in ast.walk(scope):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.keyword):
            name = node.arg
        if name is not None and "retry" in name.lower():
            return True
    return False


@register_rule
class PersistenceRetryRule(Rule):
    id = "RETRY001"
    title = "persistence-path except OSError must go through RetryPolicy"
    hint = (
        "wrap the attempt in robustness.RetryPolicy.call (or pass retry= to "
        "atomic_write_path), or suppress with '# repro-lint: "
        "disable=RETRY001 -- <why a retry is wrong here>'"
    )

    def applies_to(self, display_path: str) -> bool:
        normalized = PurePath(display_path).as_posix()
        return any(normalized.endswith(suffix) for suffix in _PERSISTENCE_MODULES)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler) or not _names_oserror(node):
                continue
            try_node = next(
                (
                    anc
                    for anc in context.ancestors(node)
                    if isinstance(anc, ast.Try)
                ),
                None,
            )
            if try_node is not None and _references_retry(try_node):
                continue
            yield self.finding(
                context,
                node,
                "except OSError on a persistence path without a RetryPolicy "
                "(or a written suppression explaining why retrying is wrong)",
            )
