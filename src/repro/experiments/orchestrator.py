"""Parallel, resumable execution of experiment sweeps.

Every table/figure/ablation reproduction is a grid of *independent* cells:
one (method, dataset, configuration, seed) tuple evaluated to a
``mean ± SD`` pair.  The serial triple loops of the original harness are
replaced by four pieces:

* :class:`RunSpec` — one cell, fully described by plain picklable data
  (method, dataset descriptor + content fingerprint, training/privacy
  configuration, repeat count, seed).  Its :meth:`~RunSpec.fingerprint` is
  a SHA-256 over the canonical JSON of everything that determines the
  result, which makes cells content-addressable.
* :class:`RunStore` (:mod:`repro.experiments.store`) — memoizes finished
  cells behind that fingerprint, so a killed sweep resumes instantly and
  tables re-render from stored results.
* :func:`execute` — runs the pending cells either inline (``workers=1``,
  the preserved serial path) or on a :class:`concurrent.futures.ProcessPoolExecutor`.
  Cells are grouped by :meth:`RunSpec.group_key` — ``(dataset fingerprint,
  proximity measure)`` — and dispatched group-chunk at a time, so each
  worker process loads a dataset once and warms the process-wide proximity
  cache once per group instead of once per cell.
* :func:`sweep` — the one path from a grid of cells to a
  :class:`ResultTable`, for every paper table, figure and ablation.

Seeding: each cell derives its own :class:`numpy.random.SeedSequence` from
``(base seed, cell fingerprint)``, so no two distinct cells ever share a
random stream (the additive ``seed + repeat`` convention they replace made
adjacent cells collide), and the result of a cell does not depend on how
the sweep is chunked or which worker runs it.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from ..config import PrivacyConfig, TrainingConfig
from ..exceptions import ConfigurationError, OrchestrationError
from ..graph import Graph, load_dataset
from ..models import get_method
from ..robustness.faults import maybe_hit
from ..robustness.retry import RetryPolicy
from ..utils import mp as _mp
from ..utils.logging import get_logger
from .results import ResultTable
from .store import RunStore

__all__ = [
    "RunSpec",
    "SweepReport",
    "cell_seed_sequence",
    "dataset_fingerprint",
    "dataset_graph",
    "execute",
    "register_kind",
    "run_spec",
    "sweep",
]

_LOGGER = get_logger("experiments.orchestrator")

# --------------------------------------------------------------------- #
# cell kinds
# --------------------------------------------------------------------- #
def register_kind(kind: str, runner: Callable[["RunSpec"], dict[str, Any]]) -> None:
    """Register a custom cell kind (mainly for tests and extensions)."""
    _KIND_RUNNERS[kind] = runner


def _resolve_kind(kind: str) -> Callable[["RunSpec"], dict[str, Any]]:
    runner = _KIND_RUNNERS.get(kind)
    if runner is None:
        raise OrchestrationError(f"unknown run kind {kind!r}; known: {sorted(_KIND_RUNNERS)}")
    return runner


# --------------------------------------------------------------------- #
# the cell description
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunSpec:
    """One independent experiment cell.

    Attributes
    ----------
    kind:
        Which evaluation to run ("strucequ", "linkpred", the synthetic
        "sleep" payload used by scheduling benchmarks, or a kind added
        with :func:`register_kind`).
    method:
        Registered method name the cell evaluates (a free label for the
        "sleep" payload and custom kinds).
    dataset / dataset_scale / dataset_num_nodes / dataset_seed:
        Descriptor handed to :func:`repro.graph.load_dataset` — datasets
        are deterministic stand-ins, so the descriptor fully determines the
        graph.
    dataset_fingerprint:
        Content hash of the loaded graph.  Part of the cell fingerprint
        (content addressing), and verified by the worker against the graph
        it loads, so a drifted generator can never silently reuse stale
        stored results.
    training / privacy:
        Full hyper-parameter configurations.
    repeats / seed / perturbation / deepwalk_window:
        Evaluation protocol knobs (see :mod:`repro.experiments.runner`).
    options:
        Kind-specific extras as a sorted tuple of ``(name, value)`` pairs:
        the hogwild ``train_workers`` count, the estimator build overrides
        of a "strucequ" cell (e.g. ``iterate_averaging=False``), the sleep
        duration.
    metric:
        Name of the reported metric ("strucequ", "auc", ...), used for
        result labelling only.
    """

    kind: str
    method: str
    dataset: str
    dataset_fingerprint: str
    training: TrainingConfig
    privacy: PrivacyConfig
    repeats: int
    seed: int
    dataset_scale: float = 1.0
    dataset_num_nodes: int | None = None
    dataset_seed: int = 0
    perturbation: str = "nonzero"
    deepwalk_window: int = 5
    options: tuple[tuple[str, Any], ...] = ()
    metric: str = "strucequ"

    # ------------------------------------------------------------------ #
    def _method_payload(self) -> Any:
        """Structured method description for the content fingerprint.

        Registered methods contribute their full
        :meth:`~repro.models.MethodSpec.fingerprint_payload` — trainer
        class, proximity factory, perturbation, privacy flag — so a method
        whose *definition* changes invalidates stored cells even when its
        label stays the same.  Unregistered labels (the synthetic "sleep"
        payload, custom kinds) fall back to the plain string.
        """
        try:
            return get_method(self.method).fingerprint_payload()
        except ConfigurationError:
            return self.method

    def describe(self) -> dict[str, Any]:
        """Canonical JSON-able description of everything result-relevant."""
        return {
            "kind": self.kind,
            "method": self._method_payload(),
            "dataset": self.dataset,
            "dataset_scale": self.dataset_scale,
            "dataset_num_nodes": self.dataset_num_nodes,
            "dataset_seed": self.dataset_seed,
            "dataset_fingerprint": self.dataset_fingerprint,
            "training": self.training.to_dict(),
            "privacy": self.privacy.to_dict(),
            "repeats": self.repeats,
            "seed": self.seed,
            "perturbation": self.perturbation,
            "deepwalk_window": self.deepwalk_window,
            "options": [[name, value] for name, value in self.options],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical description — the content address."""
        canonical = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def group_key(self) -> tuple[str, str]:
        """Affinity key ``(dataset fingerprint, proximity measure)``.

        Cells sharing a group key are dispatched to the same worker chunk,
        so each process loads the dataset and warms the proximity cache
        once per group rather than once per cell.  The proximity label
        comes from the method registry (structured field, not name
        parsing); unregistered labels group as ``"none"``.
        """
        try:
            spec = get_method(self.method)
        except ConfigurationError:
            spec = None
        if spec is None or spec.proximity is None:
            proximity = "none"
        elif spec.proximity == "deepwalk":
            proximity = f"deepwalk:{self.deepwalk_window}"
        else:
            proximity = spec.proximity
        return (self.dataset_fingerprint or self.dataset, proximity)

    def with_updates(self, **kwargs: Any) -> "RunSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def option(self, name: str, default: Any = None) -> Any:
        """Look up one kind-specific option."""
        return dict(self.options).get(name, default)


def cell_seed_sequence(spec: RunSpec) -> np.random.SeedSequence:
    """The cell's namespaced random stream root.

    Derived from ``(base seed, cell fingerprint)``, so distinct cells of a
    sweep never share streams even when they use the same base seed, and a
    cell's randomness does not depend on its position in the grid — the
    property that makes resumed and re-chunked sweeps bitwise reproducible.
    """
    entropy = int(spec.fingerprint()[:16], 16)
    return np.random.SeedSequence([spec.seed, entropy])


# --------------------------------------------------------------------- #
# dataset resolution (per-process cache)
# --------------------------------------------------------------------- #
_GRAPH_CACHE: dict[tuple[str, float, int | None, int], Graph] = {}
_GRAPH_CACHE_LIMIT = 8


def _load_graph(
    name: str, scale: float, num_nodes: int | None, seed: int
) -> Graph:
    key = (name, float(scale), num_nodes, int(seed))
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        graph = load_dataset(name, scale=scale, num_nodes=num_nodes, seed=seed)
        if len(_GRAPH_CACHE) >= _GRAPH_CACHE_LIMIT:
            _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
        _GRAPH_CACHE[key] = graph
    return graph


def dataset_fingerprint(
    name: str, scale: float = 1.0, num_nodes: int | None = None, seed: int = 0
) -> str:
    """Content fingerprint of a (deterministic) dataset stand-in."""
    return _load_graph(name, scale, num_nodes, seed).content_fingerprint()


def dataset_graph(spec: RunSpec) -> Graph:
    """Load (or reuse) the spec's graph and verify its content fingerprint."""
    graph = _load_graph(
        spec.dataset, spec.dataset_scale, spec.dataset_num_nodes, spec.dataset_seed
    )
    if spec.dataset_fingerprint and graph.content_fingerprint() != spec.dataset_fingerprint:
        raise OrchestrationError(
            f"dataset {spec.dataset!r} no longer matches the spec fingerprint "
            f"({graph.content_fingerprint()} != {spec.dataset_fingerprint}); "
            "the generator changed — stored results for it are stale"
        )
    return graph


# --------------------------------------------------------------------- #
# built-in cell runners
# --------------------------------------------------------------------- #
def evaluation_seed_sequence(spec: RunSpec) -> np.random.SeedSequence:
    """The *shared* evaluation stream of every cell on one graph.

    Derived from ``(base seed, dataset fingerprint)`` only — unlike the
    per-cell training streams — so all cells of a sweep score on the
    identical StrucEqu pair sample (common random numbers): cross-cell
    comparisons are differences of runs, not of scoring subsamples.
    """
    entropy = int(spec.dataset_fingerprint[:16], 16) if spec.dataset_fingerprint else 0
    return np.random.SeedSequence([spec.seed, entropy])


def _estimator_overrides(spec: RunSpec) -> dict[str, Any]:
    """Every option but the hogwild worker count configures the estimator."""
    return {name: value for name, value in spec.options if name != "train_workers"}


def _run_strucequ(spec: RunSpec) -> dict[str, Any]:
    from .runner import evaluate_structural_equivalence

    mean, std = evaluate_structural_equivalence(
        spec.method,
        dataset_graph(spec),
        spec.training,
        spec.privacy,
        repeats=spec.repeats,
        seed=cell_seed_sequence(spec),
        perturbation=spec.perturbation,
        deepwalk_window=spec.deepwalk_window,
        evaluation_seed=evaluation_seed_sequence(spec),
        workers=int(spec.option("train_workers", 1)),
        **_estimator_overrides(spec),
    )
    return {"metric": spec.metric, "mean": float(mean), "std": float(std), "repeats": spec.repeats}


def _run_linkpred(spec: RunSpec) -> dict[str, Any]:
    from .runner import evaluate_link_prediction

    mean, std = evaluate_link_prediction(
        spec.method,
        dataset_graph(spec),
        spec.training,
        spec.privacy,
        repeats=spec.repeats,
        seed=cell_seed_sequence(spec),
        perturbation=spec.perturbation,
        deepwalk_window=spec.deepwalk_window,
        workers=int(spec.option("train_workers", 1)),
        **_estimator_overrides(spec),
    )
    return {"metric": spec.metric, "mean": float(mean), "std": float(std), "repeats": spec.repeats}


def _run_sleep(spec: RunSpec) -> dict[str, Any]:
    # synthetic scheduling payload: blocks without burning CPU, so the
    # orchestration benchmark can measure dispatch concurrency on any box
    duration = float(spec.option("duration", 0.1))
    time.sleep(duration)
    return {"metric": spec.metric, "mean": duration, "std": 0.0, "repeats": spec.repeats}


#: cell kind -> runner.  The built-ins are module-level functions, so a pool
#: worker started by any multiprocessing method finds them by importing this
#: module; kinds added with :func:`register_kind` reach workers only by fork.
_KIND_RUNNERS: dict[str, Callable[[RunSpec], dict[str, Any]]] = {
    "strucequ": _run_strucequ,
    "linkpred": _run_linkpred,
    "sleep": _run_sleep,
}
_BUILTIN_KINDS = frozenset(_KIND_RUNNERS)


def run_spec(spec: RunSpec) -> dict[str, Any]:
    """Execute one cell in the current process and return its result dict."""
    maybe_hit(
        "orchestrator.cell", kind=spec.kind, method=spec.method, dataset=spec.dataset
    )
    return _resolve_kind(spec.kind)(spec)


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
@dataclass
class SweepReport:
    """Outcome of one :func:`execute` call.

    ``results`` is aligned with the input spec list.  ``reused`` counts
    cells served from the store without recomputation; ``computed`` counts
    cells actually run.  A cell whose runner kept raising a retryable
    error through the whole :class:`~repro.robustness.retry.RetryPolicy`
    is *quarantined*: its slot holds an error dict
    (``{"error": ..., "quarantined": True, ...}``), the failure is
    recorded in ``failures``, and the sweep continues — one poison cell
    no longer takes down a thousand-cell grid.
    """

    results: list[dict[str, Any]] = field(default_factory=list)
    reused: int = 0
    computed: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: cells that exhausted their retry budget (count of ``failures``)
    quarantined: int = 0
    #: one record per quarantined cell: spec description, error, attempts
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    def summary(self) -> str:
        """One-line progress summary (the CLI prints this)."""
        line = (
            f"cells total={self.total} reused={self.reused} "
            f"computed={self.computed} workers={self.workers} "
            f"elapsed={self.elapsed_seconds:.2f}s"
        )
        if self.quarantined:
            line += f" quarantined={self.quarantined}"
        return line


def _resolve_store(store: RunStore | str | Path | None) -> RunStore | None:
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)


def _chunk_pending(
    pending: list[tuple[int, RunSpec]], workers: int
) -> list[list[tuple[int, RunSpec]]]:
    """Split pending cells into worker chunks with group affinity.

    Cells are first grouped by :meth:`RunSpec.group_key`, then each group
    is cut into consecutive pieces of at most ``ceil(total / (workers * 4))``
    cells, which keeps enough chunks in flight for load balancing while
    never mixing groups inside one chunk (one dataset load / proximity
    warm-up per chunk).
    """
    groups: dict[tuple[str, str], list[tuple[int, RunSpec]]] = {}
    for item in pending:
        groups.setdefault(item[1].group_key(), []).append(item)
    chunk_size = max(1, -(-len(pending) // max(1, workers * 4)))
    chunks: list[list[tuple[int, RunSpec]]] = []
    for group in groups.values():
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start : start + chunk_size])
    # longest first: big chunks should not arrive last and straggle
    chunks.sort(key=len, reverse=True)
    return chunks


def _run_cell(
    spec: RunSpec, retry: RetryPolicy | None
) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """Run one cell, optionally under a retry policy.

    Returns ``(result, failure)``.  ``failure`` is ``None`` for a clean
    run; for a cell that exhausted its retries on a *retryable* error it
    is the quarantine record and ``result`` is the matching error dict.
    Non-retryable errors (and any error when ``retry`` is ``None``)
    propagate unchanged — quarantine is for transient-looking failures
    that refused to go away, never a blanket ``except``.
    """
    if retry is None:
        return run_spec(spec), None
    try:
        return retry.call(lambda: run_spec(spec)), None
    except Exception as exc:
        if not retry.is_retryable(exc):
            raise
        message = f"{type(exc).__name__}: {exc}"
        failure = {
            "spec": spec.describe(),
            "error": message,
            "attempts": retry.max_attempts,
        }
        result = {"metric": spec.metric, "error": message, "quarantined": True}
        return result, failure


def _execute_chunk(
    chunk: list[tuple[int, RunSpec]],
    store_directory: str | None,
    retry: RetryPolicy | None = None,
) -> list[tuple[int, dict[str, Any], dict[str, Any] | None]]:
    """Worker entry point: run one group chunk, publishing into the store.

    Each finished cell is written to the store *immediately* (atomic JSON),
    so a sweep killed mid-chunk still keeps every completed cell.
    Quarantined cells are *not* stored — a later resume retries them.
    """
    store = RunStore(store_directory) if store_directory is not None else None
    out: list[tuple[int, dict[str, Any], dict[str, Any] | None]] = []
    for index, spec in chunk:
        result, failure = _run_cell(spec, retry)
        if store is not None and failure is None:
            store.put(spec.fingerprint(), result, spec=spec.describe())
        out.append((index, result, failure))
    return out


def execute(
    specs: Sequence[RunSpec],
    workers: int = 1,
    store: RunStore | str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    retry: RetryPolicy | None = None,
) -> SweepReport:
    """Run every cell of a sweep, reusing stored results and parallelising.

    Parameters
    ----------
    specs:
        The expanded grid.  Results come back aligned with this sequence.
    workers:
        ``1`` (default) preserves the serial in-process path; ``> 1`` runs
        group-affine chunks on a :class:`ProcessPoolExecutor`.
    store:
        Optional :class:`RunStore` (or a directory path for one).  Cells
        whose fingerprint is already stored are *not* recomputed; newly
        computed cells are published as they finish, making a killed sweep
        resumable.
    progress:
        Optional callable receiving human-readable progress lines.
    retry:
        Optional :class:`~repro.robustness.retry.RetryPolicy`.  Retryable
        cell failures are re-attempted with jittered backoff; a cell that
        exhausts the budget is quarantined (recorded in
        ``SweepReport.failures``, never stored, never raised) so the rest
        of the sweep completes.  ``None`` (default) keeps fail-fast.
    """
    if workers < 1:
        raise OrchestrationError(f"workers must be >= 1, got {workers}")
    run_store = _resolve_store(store)
    started = time.perf_counter()
    report = SweepReport(results=[None] * len(specs), workers=workers)  # type: ignore[list-item]

    pending: list[tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        cached = run_store.get(spec.fingerprint()) if run_store is not None else None
        if cached is not None:
            report.results[index] = cached
            report.reused += 1
        else:
            pending.append((index, spec))
    if progress is not None and run_store is not None:
        progress(f"resume: {report.reused}/{len(specs)} cells already stored")

    if pending:
        if workers > 1 and not _mp.fork_available():
            # runtime-registered kinds reach pool workers only through fork
            # inheritance; under spawn/forkserver the worker would fail with
            # a baffling "unknown run kind" — degrade to the serial path
            # (with a warning) instead of crashing the sweep
            custom = sorted(
                {s.kind for _, s in pending} & (set(_KIND_RUNNERS) - _BUILTIN_KINDS)
            )
            if custom:
                workers = _mp.serial_fallback(
                    f"kinds {custom} were registered at runtime and cannot be "
                    "dispatched to pool workers under the "
                    f"{_mp.start_method()!r} start method"
                )
                report.workers = workers
        if workers == 1:
            for index, spec in pending:
                result, failure = _run_cell(spec, retry)
                report.results[index] = result
                if failure is not None:
                    report.failures.append(failure)
                    report.quarantined += 1
                else:
                    if run_store is not None:
                        run_store.put(spec.fingerprint(), result, spec=spec.describe())
                    report.computed += 1
                if progress is not None:
                    done_count = report.reused + report.computed + report.quarantined
                    progress(f"cell {done_count}/{len(specs)} done")
        else:
            store_directory = (
                str(run_store.directory)
                if run_store is not None and run_store.directory is not None
                else None
            )
            chunks = _chunk_pending(pending, workers)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_execute_chunk, chunk, store_directory, retry): chunk
                    for chunk in chunks
                }
                outstanding = set(futures)
                while outstanding:
                    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in done:
                        for index, result, failure in future.result():
                            report.results[index] = result
                            if failure is not None:
                                report.failures.append(failure)
                                report.quarantined += 1
                                continue
                            report.computed += 1
                            # a memory-only store lives in the parent; disk
                            # stores were already written by the worker
                            if run_store is not None and run_store.directory is None:
                                run_store.put(
                                    specs[index].fingerprint(),
                                    result,
                                    spec=specs[index].describe(),
                                )
                        if progress is not None:
                            done_count = (
                                report.reused + report.computed + report.quarantined
                            )
                            progress(f"cells {done_count}/{len(specs)} done")

    report.elapsed_seconds = time.perf_counter() - started
    _LOGGER.info("%s", report.summary())
    return report


def sweep(
    title: str,
    cells: Sequence[tuple[Mapping[str, Any], Mapping[str, RunSpec]]],
    *,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Execute a grid of table cells and lay the results out as rows.

    Each cell pairs a row's leading columns with ``{prefix: RunSpec}``; the
    result of each spec fills the row's ``prefix_mean`` / ``prefix_std``.
    Specs that share a fingerprint run once, in first-seen order — a
    non-private figure line repeated across the ε grid is one computed
    cell.  ``workers`` and ``store`` are handed to :func:`execute`, and its
    :class:`SweepReport` is attached to the table as ``table.run_report``.
    """
    unique = {spec.fingerprint(): spec for _, specs in cells for spec in specs.values()}
    report = execute(list(unique.values()), workers=workers, store=store)
    results = dict(zip(unique, report.results, strict=True))
    table = ResultTable(title)
    for columns, specs in cells:
        row = dict(columns)
        for prefix, spec in specs.items():
            result = results[spec.fingerprint()]
            row[f"{prefix}_mean"], row[f"{prefix}_std"] = result["mean"], result["std"]
        table.add_row(row)
    table.run_report = report
    return table


#: the metric a cell kind reports when its spec names none
_DEFAULT_METRICS = {"linkpred": "auc"}


def specs_for_settings(
    kind: str,
    method: str,
    dataset: str,
    settings: "Any",
    training: TrainingConfig | None = None,
    privacy: PrivacyConfig | None = None,
    perturbation: str = "nonzero",
    metric: str | None = None,
    options: Mapping[str, Any] | None = None,
) -> RunSpec:
    """Build one :class:`RunSpec` from an :class:`ExperimentSettings` grid.

    ``metric`` labels the result; by default it names what ``kind``
    measures ("auc" for "linkpred", "strucequ" otherwise).
    """
    merged = dict(options or {})
    train_workers = int(getattr(settings, "train_workers", 1) or 1)
    if train_workers != 1:
        # recorded only when non-default so existing cell fingerprints (and
        # therefore stored sweep results) are untouched by the new knob
        merged.setdefault("train_workers", train_workers)
    return RunSpec(
        kind=kind,
        method=method,
        dataset=dataset,
        dataset_scale=settings.dataset_scale,
        dataset_seed=settings.seed,
        dataset_fingerprint=dataset_fingerprint(
            dataset, scale=settings.dataset_scale, seed=settings.seed
        ),
        training=training if training is not None else settings.training,
        privacy=privacy if privacy is not None else settings.privacy,
        repeats=settings.repeats,
        seed=settings.seed,
        perturbation=perturbation,
        metric=metric if metric is not None else _DEFAULT_METRICS.get(kind, "strucequ"),
        options=tuple(sorted(merged.items())),
    )
