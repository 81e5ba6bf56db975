"""PRIV001: privacy arithmetic stays float64, even in float32 compute mode.

The dtype policy: SE-GEmb may train in float32, but the private step —
noise calibration, sensitivity, the Gaussian draws and their sum, and the
RDP accountant — is *exact*: it runs in float64 only, and a float32
private fit rounds its published matrices once, at release.  A
``float32`` introduced inside ``privacy/``
or in the perturbation module truncates the noise calibration silently: the
reported (ε, δ) stays the same while the actual mechanism changes, which
is precisely the failure no unit test on accuracy can catch.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from ..findings import Finding, ModuleContext
from . import Rule, register_rule

__all__ = ["PrivacyDtypeRule"]

_NUMPY_NAMES = ("np", "numpy")

#: call-site contexts in which a "float32" string constant is a cast
_CAST_FUNCS = frozenset({"astype", "dtype", "asarray", "array", "view", "empty",
                         "zeros", "ones", "full", "empty_like", "zeros_like"})


@register_rule
class PrivacyDtypeRule(Rule):
    id = "PRIV001"
    title = "no float32 in privacy-bearing code"
    hint = (
        "privacy math (noise, sensitivity, accountant) is float64 by "
        "contract; cast to the published dtype outside the privacy path, "
        "once, at release (see SkipGramTrainerBase._run_engine)"
    )

    def applies_to(self, display_path: str) -> bool:
        parts = PurePath(display_path).parts
        return "privacy" in parts or PurePath(display_path).name == "perturbation.py"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            # np.float32 mentioned anywhere (astype(np.float32), dtype=np.float32, ...)
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("float32", "single")
                and isinstance(node.value, ast.Name)
                and node.value.id in _NUMPY_NAMES
            ):
                yield self.finding(
                    context, node, f"np.{node.attr} introduced in privacy-bearing code"
                )
            # "float32" string used as a dtype: astype("float32"),
            # dtype="float32", np.dtype("float32")
            elif isinstance(node, ast.Call):
                func_name = None
                if isinstance(node.func, ast.Attribute):
                    func_name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    func_name = node.func.id
                in_cast = func_name in _CAST_FUNCS
                for arg in node.args:
                    if (
                        in_cast
                        and isinstance(arg, ast.Constant)
                        and arg.value == "float32"
                    ):
                        yield self.finding(
                            context, arg, "'float32' dtype string in privacy-bearing code"
                        )
                for keyword in node.keywords:
                    if (
                        keyword.arg == "dtype"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value == "float32"
                    ):
                        yield self.finding(
                            context,
                            keyword.value,
                            "dtype='float32' in privacy-bearing code",
                        )
