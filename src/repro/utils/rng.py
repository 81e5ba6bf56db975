"""Random-number-generator helpers.

Every stochastic component in the library accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalises
these three cases into a ``Generator`` so the rest of the code never touches
the global numpy random state.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["ensure_rng", "repeat_streams"]

#: types accepted wherever the library takes a ``seed`` parameter
_SEED_TYPES = "an int, a numpy.random.Generator, a numpy.random.SeedSequence, or None"


def _reject_bad_seed(seed: object) -> None:
    """Raise :class:`ConfigurationError` naming the offending seed type.

    Without this, a string or float seed survives until numpy's
    ``SeedSequence`` rejects it several frames deep with a bare
    ``TypeError`` that never mentions which trainer parameter was wrong.
    """
    raise ConfigurationError(
        f"seed must be {_SEED_TYPES}; got {type(seed).__name__}: {seed!r}"
    )


def ensure_rng(
    seed: int | np.random.Generator | np.random.SeedSequence | None = None,
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed-like value.

    Parameters
    ----------
    seed:
        ``None`` for a non-deterministic generator, an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged).  Anything else raises
        :class:`~repro.exceptions.ConfigurationError` naming the offending
        type, instead of failing deep inside numpy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(seed)
    _reject_bad_seed(seed)


def repeat_streams(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    repeats: int,
) -> tuple[list[np.random.SeedSequence], np.random.SeedSequence]:
    """Split a seed into per-repeat training streams plus one evaluation stream.

    Repeated experiment runs must be mutually independent *and* must not
    collide with the repeats of a neighbouring base seed — the additive
    ``seed + repeat`` convention makes ``(seed=0, repeat=1)`` identical to
    ``(seed=1, repeat=0)``, silently correlating runs that are reported as
    independent.  :meth:`numpy.random.SeedSequence.spawn` namespaces the
    streams instead: children of different parents never coincide.

    Returns ``(training_streams, evaluation_stream)``: one child sequence
    per repeat for the stochastic run itself, plus a single extra child for
    the *evaluation* randomness (e.g. the StrucEqu pair sample), which must
    stay fixed across repeats so the reported SD reflects run-to-run
    variation rather than scoring-sample noise.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if isinstance(seed, np.random.SeedSequence):
        base = seed
    elif isinstance(seed, np.random.Generator):
        # derive entropy from the generator so callers may pass one through
        base = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif seed is None or isinstance(seed, (int, np.integer)):
        base = np.random.SeedSequence(seed)
    else:
        _reject_bad_seed(seed)
    children = base.spawn(repeats + 1)
    return children[:repeats], children[repeats]
