"""Name-based registry of baseline embedders."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..exceptions import ConfigurationError
from .base import BaselineEmbedder
from .dpggan import DPGGAN
from .dpgvae import DPGVAE
from .gap import GAP
from .progap import ProGAP

__all__ = ["available_baselines", "get_baseline"]

_REGISTRY: dict[str, Callable[..., BaselineEmbedder]] = {
    DPGGAN.name: DPGGAN,
    DPGVAE.name: DPGVAE,
    GAP.name: GAP,
    ProGAP.name: ProGAP,
}


def available_baselines() -> list[str]:
    """Return the sorted list of registered baseline names."""
    return sorted(_REGISTRY)


def get_baseline(name: str, **kwargs: Any) -> BaselineEmbedder:
    """Instantiate a baseline by registry name, forwarding keyword arguments."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown baseline {name!r}; available: {', '.join(available_baselines())}"
        )
    return _REGISTRY[key](**kwargs)
