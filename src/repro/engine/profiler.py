"""Step-phase wall-time profiling for the training engine.

A training step has up to five phases — ``sample`` (draw the batch),
``gradients`` (Eq. 7/8 batch gradients), ``perturb`` (clip → aggregate →
noise; private update rule only), ``descend`` (parameter scatter updates)
and ``averaging`` (the moved rows' share of the iterate average; only
with an :class:`~repro.engine.hooks.IterateAveragingHook`).  The
:class:`StepProfiler` hook times each phase with ``time.perf_counter`` and
publishes the totals as a :class:`StepProfile` on
:attr:`~repro.engine.core.EngineResult.profile`, so benchmarks (and curious
users) can see *where* a step spends its time instead of just how long it
takes::

    profiler = StepProfiler()
    engine = TrainingEngine(..., hooks=(profiler,))
    result = engine.run(200)
    result.profile.mean_seconds("gradients")

Profiling is strictly opt-in: without the hook the engine takes a single
``is None`` branch per step and never calls the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .hooks import EngineHook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import EngineResult, TrainingEngine

__all__ = ["StepProfile", "StepProfiler"]

#: canonical phase order used by reports
PHASES = ("sample", "gradients", "perturb", "descend", "averaging")


@dataclass
class StepProfile:
    """Accumulated per-phase wall time of one engine run.

    ``phase_seconds`` maps phase name to total seconds across all steps;
    phases that never ran (e.g. ``perturb`` for the non-private rule) are
    absent.  ``steps`` is the number of completed steps.
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    steps: int = 0
    #: number of concurrent profiles merged into this one (1 = a single run)
    workers: int = 1

    @classmethod
    def merge(cls, profiles: "Sequence[StepProfile]") -> "StepProfile":
        """Aggregate per-worker profiles into one run-level profile.

        Phase seconds and step counts sum (total CPU-time spent per phase
        across the pool); ``workers`` sums the contributing worker counts,
        so ``total_seconds / workers`` approximates the wall time of the
        parallel run and per-step means stay comparable to a serial
        profile.  Merging nothing yields an empty profile.
        """
        merged_seconds: dict[str, float] = {}
        merged_steps = 0
        merged_workers = 0
        for profile in profiles:
            for phase, seconds in profile.phase_seconds.items():
                merged_seconds[phase] = merged_seconds.get(phase, 0.0) + seconds
            merged_steps += profile.steps
            merged_workers += profile.workers
        return cls(
            phase_seconds=merged_seconds,
            steps=merged_steps,
            workers=max(1, merged_workers),
        )

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded phase times."""
        return float(sum(self.phase_seconds.values()))

    def mean_seconds(self, phase: str) -> float:
        """Mean seconds per step spent in ``phase`` (0.0 if it never ran)."""
        if self.steps == 0:
            return 0.0
        return self.phase_seconds.get(phase, 0.0) / self.steps

    def to_dict(self) -> dict:
        """JSON-able summary (used by the benchmark artifacts)."""
        ordered = {
            phase: self.phase_seconds[phase]
            for phase in PHASES
            if phase in self.phase_seconds
        }
        ordered.update(
            {
                phase: seconds
                for phase, seconds in self.phase_seconds.items()
                if phase not in PHASES
            }
        )
        return {
            "steps": self.steps,
            "workers": self.workers,
            "total_seconds": self.total_seconds,
            "phase_seconds": ordered,
            "phase_mean_seconds": {
                phase: (seconds / self.steps if self.steps else 0.0)
                for phase, seconds in ordered.items()
            },
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{phase}={self.mean_seconds(phase) * 1e3:.3f}ms"
            for phase in PHASES
            if phase in self.phase_seconds
        )
        return f"StepProfile(steps={self.steps}, {parts})"


class StepProfiler(EngineHook):
    """Engine hook recording per-phase wall time of every step.

    ``on_train_start`` attaches the profiler to the engine (the engine and
    the update rule call :meth:`record` around their phases);
    ``on_train_end`` detaches it and publishes the accumulated
    :class:`StepProfile` on the result.  The profiler resets at the start
    of each run, so one hook instance can profile several runs in sequence
    — read :attr:`last_profile` (or the result) between runs.
    """

    def __init__(self) -> None:
        self._phase_seconds: dict[str, float] = {}
        self._steps = 0
        #: profile of the most recently completed run
        self.last_profile: StepProfile | None = None

    # ------------------------------------------------------------------ #
    def record(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time into ``phase``."""
        self._phase_seconds[phase] = self._phase_seconds.get(phase, 0.0) + seconds

    def profile(self) -> StepProfile:
        """Snapshot the accumulated totals as a :class:`StepProfile`."""
        return StepProfile(phase_seconds=dict(self._phase_seconds), steps=self._steps)

    # ------------------------------------------------------------------ #
    def on_train_start(self, engine: "TrainingEngine") -> None:
        self._phase_seconds = {}
        self._steps = 0
        engine.profiler = self

    def after_step(self, engine: "TrainingEngine", epoch: int, loss: float) -> None:
        self._steps += 1

    def on_train_end(
        self, engine: "TrainingEngine", result: "EngineResult"
    ) -> "EngineResult":
        from dataclasses import replace

        engine.profiler = None
        self.last_profile = self.profile()
        return replace(result, profile=self.last_profile)
