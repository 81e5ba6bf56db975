"""Hogwild execution: shard one engine run across forked worker processes.

The paper's Algorithm-1 training step touches only the few rows of one
disjoint edge subgraph (``1 + B(k+2)`` rows out of ``|V|``), which makes
the training loop a textbook hogwild workload: workers apply their sparse
scatter updates to *shared* parameter matrices without locks, and the rare
write collisions on popular rows act like slightly stale gradients rather
than corruption (Niu et al., 2011).  This module provides the pool:

* the model's matrices must live in shared memory (e.g.
  :class:`~repro.embedding.shared_model.SharedSkipGramModel`) — workers
  are forked and update the very same pages the parent reads;
* the requested step count is split into balanced shards
  (:func:`plan_shards`), one forked worker per shard;
* each worker derives its own namespaced RNG stream from a
  ``SeedSequence.spawn`` child and builds a private engine around the
  shared model via the caller's ``engine_factory`` — its own sampler,
  optimizer and perturbation; each engine run allocates its own
  :class:`~repro.engine.workspace.StepWorkspace`, so the zero-allocation
  step holds per worker and nothing but the model pages is shared on the
  hot path;
* per-worker losses, :class:`~repro.engine.profiler.StepProfile` results
  and (opt-in) tracemalloc evidence come back over a pipe and are merged
  into one :class:`~repro.engine.core.EngineResult`.

Supervision (PR 10): with a
:class:`~repro.robustness.checkpoint.SupervisorPolicy` the parent runs a
supervisor loop instead of a fire-and-collect pass.  Workers periodically
checkpoint ``(steps, rng state, losses)`` per shard; a dead or stalled
worker is restarted from its last checkpoint — the trained weights live in
the parent's shared pages and survive the worker — up to ``max_restarts``
times with exponential backoff, after which the run degrades to a
partial-result :class:`~repro.exceptions.HogwildDegradedError` naming the
recovered and lost shards.  Privacy accounting stays conservative
throughout: every incarnation that dies is charged its *full remaining
step allotment* (``target − resume offset``), so the composed charge can
over-count mechanism invocations but can never under-count them — noise a
crashed worker already released stays paid for.  Without supervision the
behaviour is the historical one (any worker failure fails the run), just
expressed as ``max_restarts=0`` through the same loop.

Like the rest of the engine, this module is duck-typed and imports nothing
from the embedding package: it needs a model with ``w_in`` / ``w_out`` /
``embeddings()`` whose arrays are fork-shared, and a factory returning a
:class:`~repro.engine.core.TrainingEngine` over it.

What is and is not deterministic: the *set* of batches each shard samples
and the noise each shard draws are fixed by the spawned seeds, but the
interleaving of the racy parameter writes is scheduler-dependent, so
multi-worker results are reproducible only in distribution.  A restarted
incarnation continues a *deterministic* stream (the checkpointed
``bit_generator.state``), but not a bit-replay of the lost steps — the
same in-distribution guarantee.  Every restart is launched from a fresh
seed taken from a sibling of the shard seeds, never from a shard seed's
own subtree: a worker spawns its perturbation noise from its launch seed
inside the fork, where the supervisor cannot see the spawn counter, so a
restart seed drawn from the shard seed could equal the key of noise a dead
incarnation already released.  ``workers=1`` never enters the pool —
trainers keep the exact serial path for it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import tracemalloc
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm
from multiprocessing.connection import wait as _conn_wait
from typing import Any

import numpy as np

from ..exceptions import HogwildDegradedError, TrainingError
from ..robustness.checkpoint import CheckpointStore, ShardCheckpoint, SupervisorPolicy
from ..robustness.faults import FaultPlan, get_active_plan
from ..utils import mp as _mp
from ..utils.logging import get_logger
from .core import EngineResult, TrainingEngine
from .hooks import EngineHook, IterateAveragingHook
from .profiler import StepProfile, StepProfiler

__all__ = ["HogwildRun", "WorkerReport", "plan_shards", "run_hogwild"]

_LOGGER = get_logger("engine.hogwild")

#: steps a traced worker runs before the measured tracemalloc window opens
#: (lets caches, list over-allocation and tracemalloc's own tables settle)
_TRACE_WARMUP_STEPS = 8


def plan_shards(total_steps: int, workers: int) -> list[int]:
    """Split ``total_steps`` into at most ``workers`` balanced shard sizes.

    Earlier shards absorb the remainder; no shard is ever empty (a worker
    must run at least one step), so fewer than ``workers`` shards come back
    when there are fewer steps than workers.
    """
    total_steps = int(total_steps)
    workers = int(workers)
    if total_steps < 1:
        raise TrainingError(f"total_steps must be positive, got {total_steps}")
    if workers < 1:
        raise TrainingError(f"workers must be >= 1, got {workers}")
    workers = min(workers, total_steps)
    base, extra = divmod(total_steps, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


@dataclass
class WorkerReport:
    """What one shard reports back to the parent."""

    shard: int
    steps: int
    losses: list[float]
    profile: StepProfile
    #: tracemalloc growth in bytes over ``traced_steps`` steady-state steps
    #: (-1 when memory tracing was off)
    traced_bytes: int = -1
    traced_steps: int = 0
    pid: int = 0
    #: which incarnation of the shard produced this report (0 = never restarted)
    incarnation: int = 0
    #: steps this incarnation actually accumulated into the iterate average
    #: (< ``steps`` after a restart: checkpointed steps are counted in
    #: ``steps`` but their iterates died with the crashed incarnation)
    averaged_steps: int = 0


@dataclass
class HogwildRun:
    """Outcome of :func:`run_hogwild`: the merged result plus per-worker detail."""

    result: EngineResult
    reports: list[WorkerReport] = field(default_factory=list)
    #: conservative per-shard privacy charges, aligned with ``reports`` —
    #: equals ``shard_steps`` for a crash-free run, strictly larger when a
    #: shard crashed (every dead incarnation is charged its full remaining
    #: allotment; over-counting is privacy-safe, under-counting never is)
    charged_steps: list[int] = field(default_factory=list)
    #: worker restarts performed by the supervisor during this run
    restarts: int = 0

    @property
    def shard_steps(self) -> list[int]:
        """Steps actually recorded per shard (losses / epochs bookkeeping)."""
        return [report.steps for report in self.reports]

    @property
    def accountant_steps(self) -> list[int]:
        """What the privacy accountant must compose over: the charged counts."""
        if self.charged_steps:
            return list(self.charged_steps)
        return self.shard_steps


class _FaultHook(EngineHook):
    """Cross the ``hogwild.worker.step`` fault point before every step.

    Installed only when a :class:`~repro.robustness.faults.FaultPlan` is
    active (the profiler idiom: the default path carries no hook at all,
    so it stays bit-identical).  ``step`` is the shard-local global step
    index about to run — resume offsets included, so ``step=k`` means the
    same training position whether or not the shard was restarted.
    """

    def __init__(self, plan: FaultPlan, shard: int, incarnation: int, offset: int) -> None:
        self._plan = plan
        self._shard = shard
        self._incarnation = incarnation
        self._next_step = offset

    def before_step(self, engine: "TrainingEngine", epoch: int) -> None:
        self._plan.hit(
            "hogwild.worker.step",
            shard=self._shard,
            step=self._next_step,
            incarnation=self._incarnation,
        )
        self._next_step += 1


class _CheckpointHook(EngineHook):
    """Atomically checkpoint the shard every ``every`` completed steps."""

    def __init__(
        self,
        store: CheckpointStore,
        task: "_ShardTask",
        rng: np.random.Generator,
        every: int,
    ) -> None:
        self._store = store
        self._shard = task.shard
        self._incarnation = task.incarnation
        self._base_steps = task.resume_at
        self._losses = list(task.base_losses)
        self._rng = rng
        self._every = every
        self._count = 0

    def after_step(self, engine: "TrainingEngine", epoch: int, loss: float) -> None:
        self._count += 1
        self._losses.append(float(loss))
        total = self._base_steps + self._count
        if total % self._every == 0:
            self._store.save(
                ShardCheckpoint(
                    shard=self._shard,
                    steps=total,
                    incarnation=self._incarnation,
                    rng_state=self._rng.bit_generator.state,
                    losses=self._losses,
                )
            )


def _release_blocks(
    blocks: tuple[_shm.SharedMemory, ...], owner_pid: int
) -> None:
    """Close (and, in the owning process, unlink) shared blocks.

    Unlink runs first and unconditionally: even if a lingering ndarray
    view keeps a mapping pinned (``close`` then raises ``BufferError``)
    the *name* is gone, so nothing leaks in ``/dev/shm`` — the memory is
    freed when the last view dies.  Shared between :meth:`destroy` and the
    ``weakref.finalize`` backstop so both exit paths behave identically.
    """
    unlink = os.getpid() == owner_pid
    for block in blocks:
        if unlink:
            try:
                block.unlink()
            except FileNotFoundError:
                pass
        try:
            block.close()
        except BufferError:  # pragma: no cover - views still exported
            pass


class _SharedAccumulator:
    """Two shared float64 blocks pooling the workers' averaging corrections.

    A worker's :class:`~repro.engine.hooks.IterateAveragingHook` ends its
    shard with the correction ``D_w/T_w``: its step-weighted sum of the
    steps it landed, over its own step count.  Each worker adds it under
    ``lock`` once at shard end (two adds per worker per run, not per step),
    and the parent publishes ``W_final + Σ_w D_w/T_w``.  When the shards
    take turns, step ``u`` of a ``T_w``-step shard lands near global step
    ``u·T/T_w``, so each correction weighs its steps as the global-clock
    Polyak average ``W_T + (1/T)·Σ_t (t−1)·δ_t`` does, up to a shift of
    less than one round of the pool.  Fresh shared memory reads as zeros
    and its pages are only backed once written, so a pool whose engines
    do not average pays nothing for the blocks.  The parent creates, owns
    and unlinks them; a pid-guarded ``weakref.finalize`` backstop releases
    them at garbage collection if :meth:`destroy` was never reached.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        nbytes = int(np.prod(shape)) * np.dtype(np.float64).itemsize
        self._blocks = (
            _shm.SharedMemory(create=True, size=nbytes),
            _shm.SharedMemory(create=True, size=nbytes),
        )
        self.correction_w_in = np.ndarray(shape, dtype=np.float64, buffer=self._blocks[0].buf)
        self.correction_w_out = np.ndarray(shape, dtype=np.float64, buffer=self._blocks[1].buf)
        self._owner_pid = os.getpid()
        # backstop if run_hogwild never reaches its finally (or a caller
        # abandons the accumulator): unlink at GC so no segment can outlive
        # the parent.  Guarded by pid — forked children inherit the
        # finalizer registry but must never unlink the parent's blocks.
        self._finalizer = weakref.finalize(
            self, _release_blocks, self._blocks, self._owner_pid
        )

    def add(self, correction_w_in: np.ndarray, correction_w_out: np.ndarray) -> None:
        self.correction_w_in += correction_w_in
        self.correction_w_out += correction_w_out

    def destroy(self) -> None:
        """Drop the views, close the mappings and (in the owner) unlink."""
        self._finalizer.detach()
        self.correction_w_in = None  # type: ignore[assignment]
        self.correction_w_out = None  # type: ignore[assignment]
        _release_blocks(self._blocks, self._owner_pid)


def _seed_sequence(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.SeedSequence:
    """Normalise any accepted seed form into a spawnable ``SeedSequence``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        # consume one draw so a trainer can thread its master generator in
        # without two fits sharing shard streams
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


class _TraceMemoryHook(EngineHook):
    """Measure a shard's steady-state allocation growth with tracemalloc.

    The hook starts tracemalloc after the first ``_TRACE_WARMUP_STEPS``
    steps and then samples its current size at every step boundary; the
    caller stops it when the run ends.  The reported growth is last-sample
    minus first-sample: it covers the steady-state step loop only,
    excluding both run-entry allocations and the engine's end-of-run
    result snapshot (two ``|V| x d`` copies — a constant handover cost,
    not per-step leak surface).
    """

    def __init__(self) -> None:
        self.steps = 0
        self.first = 0
        self.last = 0
        self.samples = 0

    def after_step(self, engine: TrainingEngine, epoch: int, loss: float) -> None:
        self.steps += 1
        if self.steps == _TRACE_WARMUP_STEPS:
            tracemalloc.start()
        elif self.steps > _TRACE_WARMUP_STEPS:
            current = tracemalloc.get_traced_memory()[0]
            if self.samples == 0:
                self.first = current
            self.last = current
            self.samples += 1


@dataclass
class _ShardTask:
    """Everything one worker incarnation needs to run (picklable)."""

    shard: int
    #: the shard's *total* step target across all incarnations
    target: int
    #: steps a previous incarnation already completed (checkpoint floor)
    resume_at: int = 0
    incarnation: int = 0
    #: checkpointed ``bit_generator.state`` to continue from (None = seed)
    rng_state: dict[str, Any] | None = None
    #: cumulative loss trace up to ``resume_at``
    base_losses: list[float] = field(default_factory=list)
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0


def _run_shard(
    engine_factory: Callable[[np.random.Generator], TrainingEngine],
    seed: np.random.SeedSequence,
    task: _ShardTask,
    trace_memory: bool,
) -> tuple[WorkerReport, IterateAveragingHook | None]:
    """Run one shard incarnation in the current process; pool and inline share it.

    Returns the report and the engine's iterate averager, if it has one;
    the averager ends the run with its correction for the pool to add.
    """
    rng = np.random.default_rng(seed)
    if task.rng_state is not None:
        # continue the checkpointed sampler stream; streams spawned from
        # ``rng`` (the perturbation noise) still come from the fresh seed
        rng.bit_generator.state = task.rng_state
    engine = engine_factory(rng)
    averager = next(
        (hook for hook in engine.hooks if isinstance(hook, IterateAveragingHook)), None
    )
    if averager is not None:
        averager.pooled = True
    profiler = StepProfiler()
    extra_hooks: list[EngineHook] = [profiler]
    plan = get_active_plan()
    if plan is not None:  # the single opt-in branch; no hook on the default path
        extra_hooks.append(_FaultHook(plan, task.shard, task.incarnation, task.resume_at))
    if task.checkpoint_dir is not None and task.checkpoint_every > 0:
        extra_hooks.append(
            _CheckpointHook(
                CheckpointStore(task.checkpoint_dir), task, rng, task.checkpoint_every
            )
        )
    tracer = _TraceMemoryHook() if trace_memory else None
    if tracer is not None:
        extra_hooks.append(tracer)
    engine.hooks = tuple(engine.hooks) + tuple(extra_hooks)

    try:
        result = engine.run(task.target - task.resume_at)
    finally:
        if tracer is not None:
            tracemalloc.stop()
    traced = tracer is not None and tracer.samples > 1
    report = WorkerReport(
        shard=task.shard,
        steps=task.resume_at + result.epochs_run,
        losses=list(task.base_losses) + result.losses,
        profile=profiler.last_profile,
        traced_bytes=tracer.last - tracer.first if traced else -1,
        traced_steps=tracer.samples - 1 if traced else 0,
        pid=os.getpid(),
        incarnation=task.incarnation,
        averaged_steps=averager.steps if averager is not None else 0,
    )
    return report, averager


def _worker_entry(engine_factory, seed, task, trace_memory, accumulator, lock, conn) -> None:
    """Forked worker body: run the shard, pool its averaging correction, report back."""
    try:
        report, averager = _run_shard(engine_factory, seed, task, trace_memory)
        if averager is not None:
            with lock:
                accumulator.add(averager.correction_w_in, averager.correction_w_out)
        conn.send(("ok", report))
    except BaseException as exc:  # forwarded to the parent, then re-raised
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
        raise
    finally:
        conn.close()


def _interleave_losses(per_shard: Sequence[Sequence[float]]) -> list[float]:
    """Round-robin merge of the shard loss traces.

    Shards progress concurrently, so interleaving step ``j`` of every
    shard approximates the chronological loss curve of the combined run
    far better than concatenation would.
    """
    merged: list[float] = []
    for j in range(max((len(tr) for tr in per_shard), default=0)):
        for trace in per_shard:
            if j < len(trace):
                merged.append(trace[j])
    return merged


class _ShardState:
    """Supervisor-side lifecycle of one shard across incarnations."""

    def __init__(
        self,
        shard: int,
        target: int,
        seed: np.random.SeedSequence,
        restart_seeds: np.random.SeedSequence,
        max_restarts: int,
        backoff: float,
    ) -> None:
        self.shard = shard
        self.target = target
        self.seed = seed
        self.restart_seeds = restart_seeds
        self.resume_at = 0
        self.incarnation = 0
        self.rng_state: dict[str, Any] | None = None
        self.base_losses: list[float] = []
        self.charged = 0
        self.restarts_left = max_restarts
        self.backoff = backoff
        self.process = None
        self.conn = None
        self.launch_resume = 0
        self.started_at = 0.0
        self.restart_at = 0.0
        self.report: WorkerReport | None = None
        self.failure: str | None = None


def _merge_run(
    model,
    reports: list[WorkerReport],
    accumulator: "_SharedAccumulator | IterateAveragingHook | None",
    charged: list[int],
    restarts: int,
) -> HogwildRun:
    """Fold worker reports + the shared pages into one :class:`HogwildRun`.

    ``accumulator`` holds the pooled averaging corrections: the shared
    blocks of a forked pool, or the one in-process shard's own averaging
    hook.  When any shard averaged, the result is the shared final
    iterates plus the pooled corrections; otherwise it is the final
    iterates.
    """
    total_run = sum(report.steps for report in reports)
    averaged = sum(report.averaged_steps for report in reports)
    if averaged > 0:
        embeddings, context = (
            np.add(final, correction)
            for final, correction in (
                (model.w_in, accumulator.correction_w_in),
                (model.w_out, accumulator.correction_w_out),
            )
        )
    else:
        embeddings, context = model.embeddings(), model.w_out.copy()
    result = EngineResult(
        embeddings=embeddings,
        context_embeddings=context,
        losses=_interleave_losses([report.losses for report in reports]),
        epochs_run=total_run,
        profile=StepProfile.merge([report.profile for report in reports]),
    )
    return HogwildRun(
        result=result, reports=reports, charged_steps=charged, restarts=restarts
    )


def run_hogwild(
    *,
    model,
    engine_factory: Callable[[np.random.Generator], TrainingEngine],
    total_steps: int,
    workers: int,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    trace_memory: bool = False,
    supervision: SupervisorPolicy | None = None,
) -> HogwildRun:
    """Run ``total_steps`` engine steps sharded over forked hogwild workers.

    Parameters
    ----------
    model:
        The shared-memory backed model every worker's engine updates in
        place.  Its ``w_in`` must be fork-shared (not merely copy-on-write)
        or the workers' updates would never reach the parent.
    engine_factory:
        Callable building a fresh :class:`TrainingEngine` over ``model``
        from a worker-private generator.  It runs *inside* the forked
        worker, so it may close over arbitrarily large parent state
        (subgraph pools, objectives) at zero copy cost.  When the engine
        carries an :class:`~repro.engine.hooks.IterateAveragingHook`, the
        shards' averaging corrections are pooled and the result publishes
        the final iterates plus their sum, the Polyak average of the pooled
        run, instead of the final iterates.
    total_steps:
        Combined number of steps across all shards.  The privacy-relevant
        count is the run's :attr:`HogwildRun.accountant_steps` — equal to
        the per-shard step counts for a crash-free run, conservatively
        larger when the supervisor had to restart shards.
    workers:
        Requested pool size; degraded to serial-in-process with a warning
        when ``fork`` is unavailable.
    seed:
        Root of the per-shard streams (``SeedSequence.spawn`` children).
    trace_memory:
        Have every worker measure its steady-state allocation growth with
        ``tracemalloc`` (reported per worker, not enabled in the parent).
    supervision:
        ``None`` (default) keeps the historical all-or-nothing semantics:
        any worker failure raises a :class:`TrainingError` once every
        shard has been collected.  A
        :class:`~repro.robustness.checkpoint.SupervisorPolicy` turns on
        crash supervision: periodic per-shard checkpoints, restart with
        exponential backoff up to ``max_restarts`` per shard, stall
        detection via ``worker_timeout``, and a degradation to
        :class:`~repro.exceptions.HogwildDegradedError` (carrying the
        conservative per-shard charges and the partial result) when a
        shard exhausts its restart budget.  Supervision applies to the
        forked pool only — the inline single-shard path cannot outlive
        its own crash.
    """
    if total_steps < 1:
        raise TrainingError(f"total_steps must be positive, got {total_steps}")
    released = getattr(model, "released", False)
    if released:
        raise TrainingError(
            "the shared model was already released; fit again to train more"
        )
    workers = _mp.resolve_fork_workers(int(workers), "hogwild training")
    shards = plan_shards(total_steps, max(1, workers))
    root = _seed_sequence(seed)
    seeds = root.spawn(len(shards))

    if len(shards) == 1:
        # fork unavailable or a single-step run: same machinery, no pool
        report, averager = _run_shard(
            engine_factory, seeds[0], _ShardTask(shard=0, target=shards[0]), trace_memory
        )
        return _merge_run(model, [report], averager, [report.steps], 0)

    policy = supervision if supervision is not None else SupervisorPolicy(
        max_restarts=0, checkpoint_every=0, worker_timeout=None
    )
    ctx = get_context("fork")
    lock = ctx.Lock()
    accumulator = _SharedAccumulator(model.w_in.shape)
    # restart seeds come from siblings of the shard seeds (see module doc)
    restart_roots = root.spawn(len(shards))
    states = [
        _ShardState(
            shard, steps, shard_seed, restart_root, policy.max_restarts, policy.backoff_base
        )
        for shard, (steps, shard_seed, restart_root) in enumerate(
            zip(shards, seeds, restart_roots, strict=True)
        )
    ]
    store: CheckpointStore | None = None
    temp_ckpt_dir: str | None = None
    if supervision is not None and policy.checkpoint_every > 0:
        if policy.checkpoint_dir is None:
            temp_ckpt_dir = tempfile.mkdtemp(prefix="repro_ckpt_")
            store = CheckpointStore(temp_ckpt_dir)
        else:
            store = CheckpointStore(policy.checkpoint_dir)
        # checkpoints are intra-run recovery only: stale files from an
        # earlier run must never be mistaken for this run's progress
        store.clear()
    restarts_total = 0

    def _launch(state: _ShardState) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        task = _ShardTask(
            shard=state.shard,
            target=state.target,
            resume_at=state.resume_at,
            incarnation=state.incarnation,
            rng_state=state.rng_state,
            base_losses=state.base_losses,
            checkpoint_dir=str(store.directory) if store is not None else None,
            checkpoint_every=policy.checkpoint_every if store is not None else 0,
        )
        # every restart gets a fresh seed: it seeds the noise, and the
        # sampler too unless a checkpointed bit_generator state continues it
        launch_seed = (
            state.seed if state.incarnation == 0 else state.restart_seeds.spawn(1)[0]
        )
        process = ctx.Process(
            target=_worker_entry,
            args=(
                engine_factory,
                launch_seed,
                task,
                trace_memory,
                accumulator,
                lock,
                child_conn,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        state.process = process
        state.conn = parent_conn
        state.launch_resume = state.resume_at
        state.started_at = time.monotonic()

    def _on_failure(state: _ShardState, message: str, now: float) -> None:
        nonlocal restarts_total
        # conservative charge: the dead incarnation may have run any number
        # of steps up to its full remaining allotment — charge all of it
        state.charged += state.target - state.launch_resume
        if store is not None:
            checkpoint = store.load(state.shard)
            if (
                checkpoint is not None
                and checkpoint.shard == state.shard
                and state.resume_at < checkpoint.steps <= state.target
            ):
                state.resume_at = checkpoint.steps
                state.rng_state = checkpoint.rng_state
                state.base_losses = list(checkpoint.losses)
        if state.restarts_left <= 0:
            state.failure = message
            _LOGGER.warning(
                "hogwild shard %d lost (%s); restart budget exhausted",
                state.shard,
                message,
            )
            return
        state.restarts_left -= 1
        restarts_total += 1
        state.incarnation += 1
        if state.resume_at >= state.target:
            # the last checkpoint already covers the full target: nothing
            # left to run, synthesize the completed report from it
            state.report = WorkerReport(
                shard=state.shard,
                steps=state.target,
                losses=list(state.base_losses),
                profile=StepProfile(),
                incarnation=state.incarnation,
            )
            return
        state.restart_at = now + state.backoff
        state.backoff = min(max(state.backoff, policy.backoff_base) * 2, policy.backoff_max)
        _LOGGER.warning(
            "hogwild shard %d failed (%s); restarting incarnation %d from step %d",
            state.shard,
            message,
            state.incarnation,
            state.resume_at,
        )
        scheduled.append(state)

    live: dict[Any, _ShardState] = {}
    scheduled: list[_ShardState] = []
    try:
        for state in states:
            _launch(state)
            live[state.conn] = state

        while live or scheduled:
            now = time.monotonic()
            for state in [s for s in scheduled if s.restart_at <= now]:
                scheduled.remove(state)
                _launch(state)
                live[state.conn] = state
            if not live:
                next_start = min(state.restart_at for state in scheduled)
                time.sleep(max(0.0, next_start - time.monotonic()))
                continue
            timeout: float | None = None
            if scheduled:
                timeout = max(0.0, min(s.restart_at for s in scheduled) - now)
            if policy.worker_timeout is not None:
                stall_deadline = min(
                    state.started_at + policy.worker_timeout
                    for state in live.values()
                )
                stall_wait = max(0.0, stall_deadline - now)
                timeout = stall_wait if timeout is None else min(timeout, stall_wait)
            ready = _conn_wait(list(live), timeout=timeout)
            now = time.monotonic()
            for conn in ready:
                state = live.pop(conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    status, payload = "died", None
                conn.close()
                state.process.join()
                if status == "ok":
                    state.report = payload
                    state.charged += int(payload.steps) - state.launch_resume
                elif status == "error":
                    _on_failure(state, str(payload), now)
                else:
                    _on_failure(
                        state,
                        f"worker pid={state.process.pid} died with exit code "
                        f"{state.process.exitcode}",
                        now,
                    )
            if policy.worker_timeout is not None:
                for conn, state in list(live.items()):
                    if now - state.started_at > policy.worker_timeout:
                        live.pop(conn)
                        state.process.terminate()
                        state.process.join()
                        conn.close()
                        _on_failure(
                            state,
                            f"worker pid={state.process.pid} stalled past "
                            f"worker_timeout={policy.worker_timeout}s and was killed",
                            now,
                        )

        lost = sorted(
            (state for state in states if state.failure is not None),
            key=lambda state: state.shard,
        )
        done = sorted(
            (state for state in states if state.report is not None),
            key=lambda state: state.shard,
        )
        charged = [state.charged for state in sorted(states, key=lambda s: s.shard)]
        reports = [state.report for state in done]
        if lost:
            recovered_ids = [state.shard for state in done]
            lost_ids = [state.shard for state in lost]
            partial = (
                _merge_run(model, reports, accumulator, charged, restarts_total)
                if reports
                else None
            )
            detail = "; ".join(
                f"shard {state.shard}: {state.failure}" for state in lost
            )
            raise HogwildDegradedError(
                f"hogwild worker failure — {detail} "
                f"(recovered shards: {recovered_ids or 'none'}, "
                f"lost shards: {lost_ids}, restarts: {restarts_total})",
                charged_steps=charged,
                recovered_shards=recovered_ids,
                lost_shards=lost_ids,
                partial=partial,
            )

        run = _merge_run(model, reports, accumulator, charged, restarts_total)
        _LOGGER.debug(
            "hogwild run: %d steps over %d workers, %d restarts (%s)",
            run.result.epochs_run,
            len(reports),
            restarts_total,
            run.result.profile,
        )
        return run
    finally:
        for state in states:
            process = state.process
            if process is not None and process.is_alive():  # pragma: no cover
                process.terminate()
                process.join()
        accumulator.destroy()
        if temp_ckpt_dir is not None:
            shutil.rmtree(temp_ckpt_dir, ignore_errors=True)
