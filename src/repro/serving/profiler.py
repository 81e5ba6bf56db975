"""Query-phase wall-time profiling for the serving layer.

A ``top_k`` call has three phases — ``gather`` (pull the query rows and
their norms from the engine's float32 corpus), ``matmul`` (score each
candidate block of that corpus in place: one sgemm, plus the two divides
for cosine) and ``partition`` (pack ranking keys, merge the running top-k,
final sort + decode).  :class:`QueryProfiler` times them exactly like the
training :class:`~repro.engine.profiler.StepProfiler` times engine steps,
and publishes the same :class:`~repro.engine.profiler.StepProfile` shape —
one profile vocabulary for both benchmark surfaces (steps/sec and
queries/sec)::

    profiler = QueryProfiler()
    engine = QueryEngine(servable.embeddings, profiler=profiler)
    engine.top_k(nodes, k=10)
    profiler.profile().mean_seconds("matmul")   # seconds per *query*

Profiling is strictly opt-in: an engine without a profiler takes a single
``is None`` branch per call and never touches the clock.
"""

from __future__ import annotations

from ..engine.profiler import StepProfile

__all__ = ["QUERY_PHASES", "QueryProfiler"]

#: canonical phase order of one top_k scan
QUERY_PHASES = ("gather", "matmul", "partition")


class QueryProfiler:
    """Accumulates per-phase wall time across ``top_k`` calls.

    The published profile counts *queries* (batch rows served), not calls,
    as its ``steps`` — so ``mean_seconds(phase)`` is per-query cost and a
    batched call amortising a scan over 64 rows shows up as 64 cheap
    "steps", directly comparable across batch sizes.
    """

    def __init__(self) -> None:
        self._phase_seconds: dict[str, float] = {}
        self._queries = 0
        self._calls = 0

    # ------------------------------------------------------------------ #
    def record(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time into ``phase``."""
        self._phase_seconds[phase] = self._phase_seconds.get(phase, 0.0) + seconds

    def add_queries(self, count: int) -> None:
        """Count ``count`` served query rows (one engine call)."""
        self._queries += int(count)
        self._calls += 1

    @property
    def calls(self) -> int:
        """Number of engine calls profiled (a batch is one call)."""
        return self._calls

    def profile(self) -> StepProfile:
        """Snapshot the totals (``steps`` = query rows served)."""
        return StepProfile(phase_seconds=dict(self._phase_seconds), steps=self._queries)

    def reset(self) -> None:
        """Clear the accumulated totals (e.g. between benchmark rounds)."""
        self._phase_seconds = {}
        self._queries = 0
        self._calls = 0
