"""FP001: fingerprint/group-key functions iterate mappings canonically.

Content fingerprints key the RunStore, the proximity cache, and artifact
drift checks (PR 3/4).  A fingerprint function that iterates a dict in
insertion order produces a *valid-looking* hash that depends on call-site
construction order: the same logical configuration re-keys, stored sweep
cells silently recompute, and caches split.  The canonical idioms are
``sorted(...)`` around any ``.items()`` / ``.keys()`` / ``.values()`` /
``vars()`` iteration, and ``json.dumps(..., sort_keys=True)`` for whole
payloads.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding, ModuleContext
from . import Rule, register_rule

__all__ = ["FingerprintOrderRule"]

_DICT_VIEWS = ("items", "keys", "values")


def _is_fingerprint_function(name: str) -> bool:
    # a test that compares fingerprints against pinned values computes no
    # digest, so its iteration order cannot re-key anything
    if name.startswith("test_"):
        return False
    return "fingerprint" in name or name == "group_key"


def _unsorted_mapping_iter(node: ast.expr) -> str | None:
    """Name the mapping view if ``node`` iterates one without sorting."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS:
            return f".{func.attr}()"
        if isinstance(func, ast.Name) and func.id == "vars":
            return "vars()"
    return None


@register_rule
class FingerprintOrderRule(Rule):
    id = "FP001"
    title = "fingerprints iterate dicts via sorted() / sort_keys=True"
    hint = (
        "wrap the iteration in sorted(...) or serialise with "
        "json.dumps(payload, sort_keys=True) so the digest is independent "
        "of insertion order"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_fingerprint_function(node.name):
                continue
            yield from self._check_function(context, node)

    def _check_function(
        self, context: ModuleContext, func: ast.AST
    ) -> Iterator[Finding]:
        name = getattr(func, "name", "<fn>")
        iter_exprs: list[ast.expr] = []
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                iter_exprs.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iter_exprs.extend(comp.iter for comp in node.generators)
            elif isinstance(node, ast.Call):
                callee = node.func
                # json.dumps(...) must pass sort_keys=True
                is_dumps = (
                    isinstance(callee, ast.Attribute) and callee.attr == "dumps"
                ) or (isinstance(callee, ast.Name) and callee.id == "dumps")
                if is_dumps:
                    sorted_keys = any(
                        keyword.arg == "sort_keys"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                        for keyword in node.keywords
                    )
                    if not sorted_keys:
                        yield self.finding(
                            context,
                            node,
                            f"json.dumps without sort_keys=True in "
                            f"fingerprint function {name}",
                        )
        for expr in iter_exprs:
            view = _unsorted_mapping_iter(expr)
            if view is not None:
                yield self.finding(
                    context,
                    expr,
                    f"iteration over {view} in insertion order inside "
                    f"fingerprint function {name}",
                )
