"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses exist for
the three broad areas where user input is validated: graph construction,
privacy accounting, and model training/configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation on it is invalid."""


class DatasetError(ReproError):
    """Raised when a named dataset cannot be built or loaded."""


class ProximityError(ReproError):
    """Raised when a proximity matrix cannot be computed or is invalid."""


class PrivacyError(ReproError):
    """Raised for invalid privacy parameters or exhausted budgets."""


class PrivacyBudgetExhausted(PrivacyError):
    """Raised when an operation would exceed the configured privacy budget."""


class ConfigurationError(ReproError):
    """Raised when a training or experiment configuration is invalid."""


class TrainingError(ReproError):
    """Raised when model training fails or is used incorrectly."""


class EvaluationError(ReproError):
    """Raised when an evaluation task receives inconsistent inputs."""


class OrchestrationError(ReproError):
    """Raised when an experiment sweep cannot be expanded or executed."""


class ArtifactError(ReproError):
    """Raised when a persisted model artifact is missing, foreign or corrupt."""


class ServingError(ReproError):
    """Base class for errors raised by the online serving layer."""


class ServerOverloadedError(ServingError):
    """Raised when the server's pending queue is full (fast-fail backpressure)."""


class CircuitOpenError(ServingError):
    """Raised when the serving circuit breaker is open and rejecting requests."""


class ServerClosedError(ServingError):
    """Raised to waiters abandoned because the server stopped before answering."""


class ServerTimeoutError(ServingError, TimeoutError):
    """Raised when a request misses its per-request deadline."""


class LedgerTornError(PrivacyError):
    """Raised when a privacy ledger ends in a torn (partially written) record.

    The verified prefix of the chain is intact; reopen the ledger with
    ``repair=True`` to truncate the torn tail and continue from the prefix.
    """
