"""Rule framework: the base class, the registry, and the shipped rules.

A rule is a class with a unique ``id``, a one-line ``title``, a ``hint``
users see under each finding, and a :meth:`Rule.check` generator yielding
:class:`~repro.analysis.findings.Finding` records for one parsed module.
Registering is declarative::

    @register_rule
    class MyRule(Rule):
        id = "XYZ001"
        ...

Adding a rule = one module under ``repro/analysis/rules/`` + an import
below; everything else (CLI ``--rules`` filtering, suppressions, baseline,
output) comes from the framework.
"""

from __future__ import annotations

import abc
import ast
from collections.abc import Iterator
from typing import ClassVar

from ..findings import Finding, ModuleContext

__all__ = ["Rule", "register_rule", "all_rules", "get_rule", "RULE_REGISTRY"]

RULE_REGISTRY: dict[str, type["Rule"]] = {}


class Rule(abc.ABC):
    """One invariant check over a parsed module."""

    id: ClassVar[str]
    title: ClassVar[str]
    hint: ClassVar[str] = ""

    def applies_to(self, display_path: str) -> bool:
        """Whether this rule inspects the given file (default: every file)."""
        del display_path
        return True

    @abc.abstractmethod
    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""

    def finding(self, context: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Shorthand: build a finding carrying this rule's id and hint."""
        return context.finding(node, self.id, message, hint=self.hint)


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = getattr(cls, "id", None)
    if not rule_id or not isinstance(rule_id, str):
        raise ValueError(f"rule {cls.__name__} must define a string id")
    if rule_id in RULE_REGISTRY and RULE_REGISTRY[rule_id] is not cls:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    RULE_REGISTRY[rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    key = rule_id.strip().upper()
    if key not in RULE_REGISTRY:
        raise KeyError(
            f"unknown rule {rule_id!r}; available: {sorted(RULE_REGISTRY)}"
        )
    return RULE_REGISTRY[key]()


# importing the rule modules populates the registry
from . import alloc, fingerprint, privacy_dtype, retry, rng  # registration side effects
