"""The three workloads and the stages every workload runs.

A run is ``setup`` repeated ``SETUP_REPS`` times (the median
is ``setup_s``), then one unmeasured warm-up round,
then measured *rounds* until the time budget is spent.  A round
drives the public path from outside: fit -> publish (export + open) ->
offline top-k -> closed-loop serving -> evaluation, with the correctness
checks of :mod:`bench_checks` on every round.  Workloads differ in sizes
and in where the fit happens (``serve-topk-20k`` fits once in setup).

Every stage takes an optional :class:`~bench_tracer.Tracer`; ``None``
(the untraced run) records nothing and calls no clock beyond the stage
timers the end-to-end metrics need.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import PrivacyConfig, TrainingConfig
from repro.evaluation import (
    link_prediction_auc,
    make_link_prediction_split,
    structural_equivalence_score,
)
from repro.exceptions import ReproError
from repro.graph import load_dataset
from repro.models import get_method
from repro.serving import BatchingServer, ServableModel

import bench_checks
from bench_speed import factor

K = 10
ENGINE_BATCH = 64
WARMUP_BATCHES = 16
#: answers per round checked against the brute-force oracle (offline + served)
CHECK_SAMPLE = 8
#: server guards: failures they raise count as failed requests
REQUEST_TIMEOUT_S = 5.0
BREAKER_THRESHOLD = 5
#: setup and export + open run this often per run / round; medians are reported
SETUP_REPS = 5
PUBLISH_REPS = 5
#: one unmeasured round, with a tenth of the fit steps, runs first: the
#: first round of a process runs up to 2x slower (allocator, page reclaim
#: for StrucEqu's 3 GB), a cost users pay once per process
WARMUP_STEPS_DIVISOR = 10
#: closed-loop clients: enough to fill one engine batch
CLIENTS = ENGINE_BATCH
#: StrucEqu samples this many pairs once n(n-1)/2 exceeds it
STRUCEQU_MAX_PAIRS = 200_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    num_nodes: int
    #: methods fitted, in order; the last one is published, served and scored
    methods: tuple[str, ...]
    training: TrainingConfig
    steps: int
    fit_in_setup: bool
    topk_queries: int
    serve_requests: int
    strucequ: bool
    eval_reps: int = 31
    #: listed in BENCHMARK.json, so its end-to-end metrics gate changes
    gated: bool = True

    @property
    def published(self) -> str:
        return self.methods[-1]

    @property
    def fit_config(self) -> TrainingConfig:
        return self.training.with_updates(epochs=self.steps)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="private-publish-20k",
            why="20k-node private fit dominated by Gaussian noise, then export, open, "
            "a top-k sample and held-out AUC",
            dataset="smallworld",
            num_nodes=20_000,
            methods=("se_privgemb_deg",),
            training=TrainingConfig(embedding_dim=64, batch_size=1024, negative_samples=5),
            steps=100,
            fit_in_setup=False,
            topk_queries=2048,
            serve_requests=4096,
            strucequ=False,
        ),
        Workload(
            name="serve-topk-20k",
            why="all serving: offline batched top-10 and a 64-client closed loop through "
            "the batching server, no training or noise in the measured part",
            dataset="smallworld",
            num_nodes=20_000,
            methods=("se_gemb_deg",),
            training=TrainingConfig(embedding_dim=64, batch_size=1024, negative_samples=5),
            steps=50,
            fit_in_setup=True,
            topk_queries=4096,
            serve_requests=4096,
            strucequ=False,
        ),
        Workload(
            name="utility-deepwalk-1k",
            why="1k-node DeepWalk preference: overhead-bound B=128 steps, dense proximity "
            "and StrucEqu past its 200k-pair cliff",
            dataset="chameleon",
            num_nodes=1_000,
            methods=("se_gemb_dw", "se_privgemb_dw"),
            training=TrainingConfig(embedding_dim=128, batch_size=128, negative_samples=5),
            steps=2_000,
            fit_in_setup=False,
            topk_queries=65_536,
            serve_requests=32_768,
            strucequ=True,
            eval_reps=1,
            # run-to-run spread of its single ~19 s round exceeds the bounds
            # (see README); runnable by name, not gated
            gated=False,
        ),
    )
}

PRIVACY = PrivacyConfig()


# --------------------------------------------------------------------- #
# bookkeeping
# --------------------------------------------------------------------- #
@dataclass
class Tally:
    """Operations attempted and failed, by kind, plus why they failed."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, kind: str, problems: list[str] | None = None, count: int = 1,
            failures: int | None = None) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + count
        if failures is None:
            failures = count if problems else 0
        self.failed[kind] = self.failed.get(kind, 0) + failures
        self.problems.extend(f"{kind}: {p}" for p in problems or ())


@contextmanager
def _traced_stage(tracer, name: str, memory: bool = False, **attrs):
    """A traced stage; with ``memory`` it also records the tracemalloc peak."""
    if memory:
        tracemalloc.start()
    try:
        with tracer.span(name, **attrs) as span:
            yield span
            if memory:
                span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        if memory:
            tracemalloc.stop()


def stage(tracer, name: str, memory: bool = False, **attrs):
    """A traced span around one stage; untraced, a no-op context yielding ``None``."""
    return _traced_stage(tracer, name, memory, **attrs) if tracer is not None else nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# stages
# --------------------------------------------------------------------- #
@dataclass
class Inputs:
    graph: object
    split: object
    proximities: dict
    offline_nodes: np.ndarray
    serve_nodes: np.ndarray


@dataclass
class Published:
    """The fit and servable ``serve-topk-20k`` builds in setup."""

    fits: dict
    fit_s: float
    servable: ServableModel
    publish_s: list[float]


def make_inputs(wl: Workload, seed: int, tracer) -> Inputs:
    with stage(tracer, "graph.generate"):
        graph = load_dataset(wl.dataset, num_nodes=wl.num_nodes, seed=seed)
    with stage(tracer, "graph.split"), warnings.catch_warnings():
        # a split may strand a test endpoint; AUC still counts it, as the paper does
        warnings.simplefilter("ignore", RuntimeWarning)
        split = make_link_prediction_split(graph, seed=seed)
    proximities = {}
    for method in wl.methods:
        with stage(tracer, "proximity.compute", memory=True, method=method) as span:
            matrix = get_method(method).make_proximity().compute(split.training_graph)
        if span is not None:
            span.attrs["nnz"] = int(matrix.nnz)
        proximities[method] = matrix
    queries = np.random.default_rng([seed, 1])
    return Inputs(
        graph=graph,
        split=split,
        proximities=proximities,
        offline_nodes=queries.integers(0, graph.num_nodes, wl.topk_queries),
        serve_nodes=queries.integers(0, graph.num_nodes, wl.serve_requests),
    )


def fit_methods(wl: Workload, inputs: Inputs, seed: int, tally: Tally, tracer):
    """Fit every method of the workload; returns ``(fits, seconds)``."""
    fits = {}
    start = time.perf_counter()
    for method in wl.methods:
        spec = get_method(method)
        privacy = PRIVACY if spec.private else None
        with stage(tracer, "models.fit", method=method) as span:
            model = spec.build(wl.fit_config, privacy, seed=seed, proximity_cache="off")
            try:
                model.fit(inputs.split.training_graph, proximity=inputs.proximities[method])
            except ReproError as exc:
                tally.add("fit", [f"{method}: {type(exc).__name__}: {exc}"])
                continue
        result = model.result_
        if span is not None and result.privacy_spent is not None:
            span.attrs["epsilon"] = float(result.privacy_spent.epsilon)
        problems = bench_checks.check_fit(
            result, wl.steps, PRIVACY.epsilon if spec.private else None
        )
        tally.add("fit", [f"{method}: {p}" for p in problems])
        fits[method] = model
    return fits, time.perf_counter() - start


def publish(model, workdir: Path, tally: Tally, tracer):
    """Export + open ``PUBLISH_REPS`` times; returns the last servable and the times.

    Every repetition republishes to the same path, which replaces (and
    deletes) the previous export, as a serving host would.
    """
    seconds = []
    servable = None
    path = workdir / "model.servable"
    for _ in range(PUBLISH_REPS):
        if servable is not None:
            servable.close()
        start = time.perf_counter()
        with stage(tracer, "serving.export"):
            model.export_servable(path, overwrite=True)
        with stage(tracer, "serving.open") as span:
            servable = ServableModel.open(path)
        seconds.append(time.perf_counter() - start)
        if span is not None:
            span.attrs["bytes"] = servable.payload_nbytes
        problems = bench_checks.check_servable(
            servable, model.embeddings_, model.context_embeddings_
        )
        tally.add("publish", problems)
    return servable, seconds


def prepare(wl: Workload, seed: int, workdir: Path, tally: Tally, tracer, speed=None):
    """One setup repetition: inputs, plus the fit and servable when set up once.

    With ``speed``, the fit and the publish are each bracketed by reference
    samples and their wall times are returned in reference seconds.
    """
    inputs = make_inputs(wl, seed, tracer)
    if not wl.fit_in_setup:
        return inputs, None
    before = speed.sample() if speed is not None else None
    fits, fit_s = fit_methods(wl, inputs, seed, tally, tracer)
    middle = speed.sample() if speed is not None else None
    model = fits.get(wl.published)
    if model is None:
        return inputs, None
    servable, publish_s = publish(model, workdir, tally, tracer)
    if speed is not None:
        after = speed.sample()
        fit_s *= factor(before, middle)
        publish_s = [s * factor(middle, after) for s in publish_s]
    return inputs, Published(fits, fit_s, servable, publish_s)


def _warm_up(engine, nodes: np.ndarray) -> None:
    """Compute row norms and let the process's allocator settle.

    The first dozen batches of a fresh process run up to 4x slower while
    the allocator adapts to the engine's multi-megabyte temporaries; users
    pay that once per process, so it stays out of the steady-state rate.
    """
    warm = np.resize(nodes, WARMUP_BATCHES * ENGINE_BATCH)
    for offset in range(0, warm.size, ENGINE_BATCH):
        engine.top_k(warm[offset:offset + ENGINE_BATCH], K)


def serve_offline(servable, nodes: np.ndarray, tally: Tally, profiler=None) -> float:
    """Batched top-k over ``nodes``, ``ENGINE_BATCH`` rows per call.

    Returns the seconds the queries took, warm-up and checks excluded.
    """
    engine = servable.query_engine(max_batch=ENGINE_BATCH, max_k=K)
    _warm_up(engine, nodes)
    engine.profiler = profiler
    first = None
    start = time.perf_counter()
    for offset in range(0, nodes.size, ENGINE_BATCH):
        result = engine.top_k(nodes[offset:offset + ENGINE_BATCH], K)
        if first is None:
            first = result
    elapsed = time.perf_counter() - start
    sample = nodes[:CHECK_SAMPLE]
    problems = bench_checks.check_topk(
        servable.embeddings, sample, first.ids[:CHECK_SAMPLE], first.scores[:CHECK_SAMPLE], K
    )
    tally.add("query", problems, count=int(nodes.size), failures=len(problems))
    return elapsed


@dataclass
class ServeRun:
    rps: float
    latencies_ms: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    nodes: np.ndarray
    failed: int
    health: dict


async def _closed_loop(engine, nodes: np.ndarray):
    count = nodes.size
    starts = np.full(count, np.nan)
    ends = np.full(count, np.nan)
    answers = {}
    failed = 0
    cursor = 0
    async with BatchingServer(
        engine,
        max_batch=ENGINE_BATCH,
        max_delay=0.002,
        default_k=K,
        request_timeout=REQUEST_TIMEOUT_S,
        max_pending=4 * CLIENTS,
        breaker_threshold=BREAKER_THRESHOLD,
    ) as server:

        async def client() -> None:
            nonlocal cursor, failed
            while cursor < count:
                index = cursor
                cursor += 1
                starts[index] = time.perf_counter()
                try:
                    ids, scores = await server.top_k(int(nodes[index]))
                except ReproError:  # timeout, overload, open breaker, engine error
                    failed += 1
                    continue
                ends[index] = time.perf_counter()
                if index < CHECK_SAMPLE:
                    answers[index] = (ids, scores)

        begin = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        elapsed = time.perf_counter() - begin
    return starts, ends, answers, failed, elapsed, server.stats.health()


def serve_closed_loop(servable, nodes: np.ndarray, tally: Tally) -> ServeRun:
    engine = servable.query_engine(max_batch=ENGINE_BATCH, max_k=K)
    _warm_up(engine, nodes)
    starts, ends, answers, failed, elapsed, health = asyncio.run(
        _closed_loop(engine, nodes)
    )
    done = np.isfinite(ends)
    checked = sorted(answers)
    problems = bench_checks.check_topk(
        servable.embeddings,
        nodes[checked],
        np.array([answers[i][0] for i in checked]),
        np.array([answers[i][1] for i in checked]),
        K,
    )
    tally.add("request", problems, count=int(nodes.size), failures=failed + len(problems))
    return ServeRun(
        rps=int(done.sum()) / elapsed,
        latencies_ms=(ends[done] - starts[done]) * 1e3,
        starts=starts,
        ends=ends,
        nodes=nodes,
        failed=failed,
        health=health,
    )


def evaluate(wl: Workload, inputs: Inputs, fits: dict, tally: Tally, tracer):
    """Held-out AUC of every fit, plus StrucEqu where the workload asks.

    Runs ``wl.eval_reps`` times.  Returns ``(median seconds, AUC of the
    published fit, StrucEqu of the published fit or None)``.
    """
    seconds = []
    for _ in range(wl.eval_reps):
        start = time.perf_counter()
        auc, strucequ = _evaluate_once(wl, inputs, fits, tally, tracer)
        seconds.append(time.perf_counter() - start)
    return median(seconds), auc, strucequ


def _evaluate_once(wl: Workload, inputs: Inputs, fits: dict, tally: Tally, tracer):
    auc = strucequ = None
    for method, model in fits.items():
        with stage(tracer, "evaluation.linkpred", memory=True, method=method):
            value = link_prediction_auc(model.embeddings_, inputs.split)
        checked = {f"{method} AUC": value}
        if wl.strucequ:
            n = inputs.graph.num_nodes
            pairs = min(n * (n - 1) // 2, STRUCEQU_MAX_PAIRS)
            with stage(tracer, "evaluation.strucequ", memory=True, method=method,
                        pairs=pairs):
                score = structural_equivalence_score(
                    inputs.graph, model.embeddings_, max_pairs=STRUCEQU_MAX_PAIRS
                )
            checked[f"{method} StrucEqu"] = score
            if method == wl.published:
                strucequ = score
        tally.add("eval", bench_checks.check_finite(checked))
        if method == wl.published:
            auc = value
    return auc, strucequ


# --------------------------------------------------------------------- #
# one round
# --------------------------------------------------------------------- #
@dataclass
class Round:
    traced: bool
    fit_s: float
    publish_s: list[float]
    topk_qps: float
    topk_s: float
    serve: ServeRun
    eval_s: float
    auc: float | None
    strucequ: float | None
    epsilon: float | None
    seconds: float
    #: wall-to-reference scale per stage (see bench_speed); 1.0 when unmeasured
    scale: dict[str, float]
    span_id: int | None = None


def run_round(wl, inputs, published, seed, workdir, tally, tracer, profiler, speed) -> Round:
    """One round; ``speed`` (a SpeedReference or None) brackets every stage."""
    start = time.perf_counter()
    marks = [speed.sample()] if speed is not None else []

    def mark() -> None:
        if speed is not None:
            marks.append(speed.sample())

    with stage(tracer, "round") as round_span:
        if published is None:
            with stage(tracer, "fit"):
                fits, fit_s = fit_methods(wl, inputs, seed, tally, tracer)
            mark()
            model = fits.get(wl.published)
            if model is None:
                raise RuntimeError(f"{wl.published} failed to fit: {tally.problems}")
            with stage(tracer, "publish"):
                servable, publish_s = publish(model, workdir, tally, tracer)
            mark()
            owned = True
        else:
            fits, fit_s = published.fits, published.fit_s
            servable, publish_s = published.servable, published.publish_s
            marks *= 3  # fit and publish happened in setup
            owned = False
        try:
            with stage(tracer, "serving.offline"):
                topk_s = serve_offline(servable, inputs.offline_nodes, tally, profiler)
            mark()
            with stage(tracer, "serving.closed_loop"):
                serve = serve_closed_loop(servable, inputs.serve_nodes, tally)
            mark()
        finally:
            if owned:
                servable.close()
        with stage(tracer, "evaluation"):
            eval_s, auc, strucequ = evaluate(wl, inputs, fits, tally, tracer)
        mark()
    stages = ("fit", "publish", "topk", "serve", "eval")
    if speed is None:
        scale = dict.fromkeys(stages, 1.0)
    else:
        scale = {name: factor(*pair) for name, pair in zip(stages, zip(marks, marks[1:]))}
    spent = fits[wl.published].result_.privacy_spent
    return Round(
        traced=tracer is not None,
        fit_s=fit_s,
        publish_s=publish_s,
        topk_qps=inputs.offline_nodes.size / topk_s,
        topk_s=topk_s,
        serve=serve,
        eval_s=eval_s,
        auc=auc,
        strucequ=strucequ,
        epsilon=float(spent.epsilon) if spent is not None else None,
        seconds=time.perf_counter() - start,
        scale=scale,
        span_id=round_span.id if round_span is not None else None,
    )


def median(values) -> float:
    return float(statistics.median(values))
