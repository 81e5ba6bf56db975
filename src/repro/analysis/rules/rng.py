"""RNG001: randomness must flow through the seeded utils.rng streams.

The repeat/stream discipline (PR 3/5) pins every stochastic result
bit-for-bit: trainers and samplers accept a seed-like parameter and
normalise it with ``ensure_rng`` / ``repeat_streams``.  One call into the
legacy global-state API (``np.random.seed``, ``np.random.rand``, ...) or
one unseeded ``np.random.default_rng()`` or bit generator (``PCG64()``,
``MT19937()``, ...) inside library code silently decouples a component
from those streams — results stay plausible, tests that don't pin the
exact draw keep passing, and reproducibility is gone.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding, ModuleContext
from . import Rule, register_rule

__all__ = ["LegacyRandomRule"]

#: numpy.random attributes that touch the legacy global state (or create
#: untracked generators); SeedSequence / Generator / default_rng excluded
_LEGACY_ATTRS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "poisson",
        "exponential",
        "gamma",
        "get_state",
        "set_state",
        "RandomState",
    }
)

_NUMPY_NAMES = ("np", "numpy")


def _is_np_random(node: ast.expr) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in _NUMPY_NAMES
    )


#: constructors that read OS entropy when given no seed (or ``None``)
_ENTROPY_SEEDED = frozenset(
    {"default_rng", "PCG64", "PCG64DXSM", "SFC64", "Philox", "MT19937"}
)


def _constructor_name(func: ast.expr) -> str | None:
    """``default_rng`` / a bit generator called as a bare or dotted name."""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    return name if name in _ENTROPY_SEEDED else None


def _is_unseeded(call: ast.Call) -> bool:
    """No arguments, or a single ``None`` seed (positional or ``seed=``)."""
    given = [*call.args, *(kw.value for kw in call.keywords)]
    if not given:
        return True
    by_name = all(kw.arg == "seed" for kw in call.keywords)
    return (
        len(given) == 1
        and by_name
        and isinstance(given[0], ast.Constant)
        and given[0].value is None
    )


@register_rule
class LegacyRandomRule(Rule):
    id = "RNG001"
    title = "no unseeded or legacy numpy randomness"
    hint = (
        "thread randomness through a seed-like parameter and normalise it "
        "with repro.utils.rng.ensure_rng / repeat_streams"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            # np.random.<legacy>( ... ) or bare np.random.<legacy> reference
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _LEGACY_ATTRS
                and _is_np_random(node.value)
            ):
                yield self.finding(
                    context,
                    node,
                    f"legacy global-state randomness np.random.{node.attr}",
                )
            # from numpy.random import rand, seed, ...
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.random",
            ):
                for alias in node.names:
                    if alias.name in _LEGACY_ATTRS:
                        yield self.finding(
                            context,
                            node,
                            f"legacy randomness imported from numpy.random: "
                            f"{alias.name}",
                        )
            # default_rng() or a bit generator with no entropy: a fresh
            # OS-seeded stream that no experiment fingerprint can reproduce
            elif isinstance(node, ast.Call) and _is_unseeded(node):
                name = _constructor_name(node.func)
                if name is not None:
                    yield self.finding(
                        context,
                        node,
                        f"unseeded {name}(): the stream cannot be "
                        "reproduced or fingerprinted",
                    )
