"""In-memory span tracer for the traced benchmark run.

Spans nest as workload -> stage -> layer call.  Each span records its
name, start, end and the id of the span that caused it, so a layer's
self time is its duration minus the time its child spans cover.

Stages are opened by the benchmark itself around its calls into each
layer (:meth:`Tracer.span`).  Calls made *inside* the library (the
engine's sample / gradients / perturb / descend phases, the hooks, the
accountant) are reached by temporarily wrapping public classes' methods
and public module functions (:func:`instrument`); :meth:`Tracer.restore`
puts every original back.  Nothing under ``src/`` is edited.

Engine steps get one extra rule.  The training loop has no per-iteration
callback that covers the hooks, so an ``engine.step`` span is opened when
``TrainingEngine.run`` starts and rotated each time the optimizer's
``step_epoch`` (the last call of every iteration) returns.  A step span
therefore covers ``before_step`` hooks, the step itself, ``after_step``
hooks and the learning-rate update; the span left open when the loop ends
is renamed ``engine.finish`` (result copy, averaging division, or the
budget check that stopped the loop).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; wraps library callables while active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._children: dict[int, list[Span]] | None = None
        # the batching server calls the engine from its executor thread
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin(self, name: str, **attrs: Any) -> Span:
        with self._lock:
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
            self.spans.append(span)
            self._stack.append(span)
            self._children = None
        return span

    def end(self, span: Span) -> None:
        with self._lock:
            span.end = time.perf_counter()
            top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed while {top.name!r} is open")

    @contextmanager
    def span(self, name: str, **attrs: Any):
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------ #
    # wrapping library callables
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[Span, tuple, Any], None] | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (the method must be defined on it, not
        inherited) or a module.  ``on_result(span, args, result)`` may add
        counts to the span.  A missing attribute is skipped, so a library
        refactor that moves a method leaves its layer reported as not run
        instead of breaking the benchmark.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every wrapped callable (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def children(self, span: Span) -> list[Span]:
        if self._children is None:
            index: dict[int, list[Span]] = {}
            for item in self.spans:
                if item.parent is not None:
                    index.setdefault(item.parent, []).append(item)
            self._children = index
        return self._children.get(span.id, [])

    def self_time(self, span: Span) -> float:
        return span.duration - sum(child.duration for child in self.children(span))

    def descendants(self, span: Span) -> list[Span]:
        found: list[Span] = []
        pending = list(self.children(span))
        while pending:
            item = pending.pop()
            found.append(item)
            pending.extend(self.children(item))
        return found

    def named(self, name: str, within: Span | None = None) -> list[Span]:
        pool = self.spans if within is None else self.descendants(within)
        return [span for span in pool if span.name == name]


def _perturb_counts(span: Span, args: tuple, result: Any) -> None:
    """Touched rows and Gaussian draws of one Eq. 9 (non-zero) step.

    The noise covers exactly the touched rows of both matrices; results
    without touched-row indices record no counts.
    """
    rows_in, rows_out = getattr(result, "w_in_rows", None), getattr(result, "w_out_rows", None)
    if rows_in is None or rows_out is None:
        return
    touched = int(len(rows_in) + len(rows_out))
    span.attrs["touched_rows"] = touched
    span.attrs["noise_draws"] = touched * int(args[1].center_gradients.shape[1])


def _pool_counts(span: Span, args: tuple, result: Any) -> None:
    span.attrs["examples"] = len(result)


def _topk_nodes(span: Span, args: tuple, result: Any) -> None:
    span.attrs["nodes"] = args[1]


def instrument(tracer: Tracer) -> None:
    """Wrap the library's layer entry points for one traced round."""
    from repro.embedding import private_trainer, trainer
    from repro.embedding.objectives import StructurePreferenceObjective
    from repro.embedding.optimizer import SGDOptimizer
    from repro.embedding.perturbation import NonZeroPerturbation, PerturbationStrategy
    from repro.engine.core import TrainingEngine
    from repro.engine.hooks import IterateAveragingHook
    from repro.engine.updates import DirectSparseUpdate, PerturbedUpdate
    from repro.graph.sampling import SubgraphSampler
    from repro.privacy.accountant import RdpAccountant
    from repro.serving.engine import QueryEngine

    tracer.wrap(SubgraphSampler, "sample_batch_arrays", "engine.sample")
    tracer.wrap(StructurePreferenceObjective, "batch_gradients", "engine.gradients")
    for cls in (PerturbationStrategy, NonZeroPerturbation):
        tracer.wrap(cls, "perturb_batch", "engine.perturb", _perturb_counts)
    # the update rule's span minus its perturb child is the descent
    for cls in (PerturbedUpdate, DirectSparseUpdate):
        tracer.wrap(cls, "apply", "engine.descend")
    tracer.wrap(IterateAveragingHook, "after_step", "engine.averaging")
    tracer.wrap(IterateAveragingHook, "on_train_end", "engine.averaging")
    tracer.wrap(RdpAccountant, "would_exceed", "privacy.accountant")
    tracer.wrap(RdpAccountant, "step", "privacy.accountant")
    for module in (trainer, private_trainer):
        tracer.wrap(module, "generate_disjoint_subgraph_arrays", "graph.pool_build", _pool_counts)
    tracer.wrap(QueryEngine, "top_k", "serving.top_k", _topk_nodes)

    run = TrainingEngine.__dict__.get("run")
    step_epoch = SGDOptimizer.__dict__.get("step_epoch")
    if run is None or step_epoch is None:
        return

    @functools.wraps(run)
    def traced_run(engine, epochs):
        outer = tracer.begin("engine.run")
        tracer.begin("engine.step")
        try:
            return run(engine, epochs)
        finally:
            last = tracer.current
            last.name = "engine.finish"
            tracer.end(last)
            tracer.end(outer)

    @functools.wraps(step_epoch)
    def traced_step_epoch(optimizer):
        step_epoch(optimizer)
        current = tracer.current
        if current is not None and current.name == "engine.step":
            tracer.end(current)
            tracer.begin("engine.step")

    tracer._patch(TrainingEngine, "run", traced_run)
    tracer._patch(SGDOptimizer, "step_epoch", traced_step_epoch)
