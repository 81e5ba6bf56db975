"""Multiprocessing capability detection for the experiment orchestrator.

The orchestrator (:mod:`repro.experiments.orchestrator`) fans sweep cells
out over child processes and relies on the ``fork`` start method for
zero-copy inheritance of large in-memory state (graphs, runtime-registered
cell kinds).  Platforms without ``fork`` (Windows; macOS defaults to
``spawn``) must not crash a long sweep halfway through: the helpers here
detect the situation once and degrade to the serial path with a single
warning.
"""

from __future__ import annotations

import multiprocessing
import warnings

from .logging import get_logger

__all__ = ["fork_available", "start_method", "serial_fallback"]

_LOGGER = get_logger("utils.mp")


def start_method() -> str:
    """The platform's default multiprocessing start method."""
    return multiprocessing.get_start_method()


def fork_available() -> bool:
    """``True`` when child processes are forked (and inherit parent memory)."""
    return start_method() == "fork"


def serial_fallback(reason: str) -> int:
    """Warn once that parallel execution degrades to serial; return ``1``.

    Emitted both on the logger (long-running sweeps watch logs) and as a
    :class:`RuntimeWarning` (interactive callers see it immediately).  The
    caller decides *when* falling back is required; this helper only makes
    the degradation loud and uniform.
    """
    message = f"{reason}; falling back to the serial path (workers=1)"
    _LOGGER.warning("%s", message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    return 1
