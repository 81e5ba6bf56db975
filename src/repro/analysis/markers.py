"""Marker decorators the invariant linter keys on.

Markers are pure annotations: they attach a flag attribute and return the
function unchanged, so decorating a hot-path method costs nothing at call
time, survives pickling across forks, and never imports numpy.
The AST rules in :mod:`repro.analysis.rules` recognise the markers *by
name* (``@zero_alloc`` / ``@markers.zero_alloc``), so static analysis
works without importing the decorated module.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

__all__ = ["zero_alloc"]

F = TypeVar("F", bound=Callable[..., object])


def zero_alloc(func: F) -> F:
    """Declare a function allocation-free at steady state.

    Functions carrying this marker are checked by rule ``ALLOC001``: no
    allocating numpy calls (``np.zeros`` / ``np.empty`` / ``np.concatenate``
    / ``np.unique`` / ...), no ``.copy()`` / ``.astype()``, and no
    out-capable numpy call (ufuncs, ``einsum``, ``take``, ``sum``, ...)
    without an explicit ``out=``.  Apply it to step-time methods only —
    never to ``__init__`` / ``_build*`` setup phases, which are expected
    to allocate.
    """
    func.__zero_alloc__ = True  # type: ignore[attr-defined]
    return func
