"""Per-layer metrics derived from the spans of the traced rounds.

Every number here comes from spans recorded around calls into a layer
(see :mod:`bench_tracer`); per-step values are medians over the steps of
the workload's measured fit (its published method).  A layer the
workload does not exercise reports 0 and is listed in ``not_run``.
"""

from __future__ import annotations

import bisect

import numpy as np

from bench_workloads import median

#: spans whose self time is attributed to a named layer inside a fit
ATTRIBUTED = (
    "engine.sample",
    "engine.gradients",
    "engine.perturb",
    "engine.descend",
    "engine.averaging",
    "privacy.accountant",
    "graph.pool_build",
)
STEP_PHASES = {
    "engine.sample_ms": "engine.sample",
    "engine.gradients_ms": "engine.gradients",
    "engine.perturb_ms": "engine.perturb",
    "engine.descend_ms": "engine.descend",
    "engine.averaging_ms": "engine.averaging",
    "privacy.accountant_ms": "privacy.accountant",
}


def _step_metrics(tracer, fits) -> dict:
    if not fits:
        return {}
    per_step: dict[str, list[float]] = {name: [] for name in STEP_PHASES}
    step_ms, overhead_ms, touched, draws, steps = [], [], [], [], []
    for fit in fits:
        fit_steps = tracer.named("engine.step", within=fit)
        steps.append(len(fit_steps))
        for step in fit_steps:
            below = tracer.descendants(step)
            step_ms.append(step.duration * 1e3)
            overhead_ms.append(tracer.self_time(step) * 1e3)
            for metric, name in STEP_PHASES.items():
                per_step[metric].append(
                    sum(tracer.self_time(s) for s in below if s.name == name) * 1e3
                )
            for span in below:
                if span.name == "engine.perturb" and "touched_rows" in span.attrs:
                    touched.append(span.attrs["touched_rows"])
                    draws.append(span.attrs["noise_draws"])
    out = {
        "engine.steps": median(steps),
        "engine.step_ms": median(step_ms),
        "engine.overhead_ms": median(overhead_ms),
        "engine.touched_rows": median(touched) if touched else 0.0,
        "engine.noise_draws": median(draws) if draws else 0.0,
    }
    out.update({metric: median(values) for metric, values in per_step.items()})
    return out


def _fit_attribution(tracer, fits) -> dict:
    if not fits:
        return {}
    unattributed, setup = [], []
    for fit in fits:
        named = sum(
            tracer.self_time(span)
            for span in tracer.descendants(fit)
            if span.name in ATTRIBUTED
        )
        unattributed.append((fit.duration - named) / fit.duration * 100.0)
        setup.append(tracer.self_time(fit))
    return {
        "engine.unattributed_pct": median(unattributed),
        "engine.setup_s": median(setup),
    }


def _queue_waits_ms(tracer, rounds) -> list[float]:
    """Per request: when its engine batch started minus when it was sent."""
    waits = []
    for rnd in rounds:
        loop = next(
            span for span in tracer.named("serving.closed_loop") if span.parent == rnd.span_id
        )
        batches = sorted(tracer.named("serving.top_k", within=loop), key=lambda s: s.end)
        ends = [batch.end for batch in batches]
        members = [set(np.asarray(batch.attrs["nodes"]).tolist()) for batch in batches]
        serve = rnd.serve
        for index in np.flatnonzero(np.isfinite(serve.ends)):
            sent, done, node = serve.starts[index], serve.ends[index], int(serve.nodes[index])
            position = bisect.bisect_right(ends, done) - 1
            while position >= 0 and batches[position].start >= sent:
                if node in members[position]:
                    waits.append((batches[position].start - sent) * 1e3)
                    break
                position -= 1
    return waits


def layer_metrics(wl, tracer, rounds, profiler) -> tuple[dict, list[str]]:
    traced = [rnd for rnd in rounds if rnd.traced]
    untraced = [rnd for rnd in rounds if not rnd.traced]
    values: dict[str, float] = {}
    not_run: list[str] = []

    def put(name: str, samples, reduce=median) -> None:
        samples = [s for s in samples if s is not None]
        if samples:
            values[name] = float(reduce(samples))
        else:
            values[name] = 0.0
            not_run.append(name)

    put("graph.generate_s", [s.duration for s in tracer.named("graph.generate")])
    put("graph.split_s", [s.duration for s in tracer.named("graph.split")])

    fits = [s for s in tracer.named("models.fit") if s.attrs["method"] == wl.published]
    pools = [s for fit in fits for s in tracer.named("graph.pool_build", within=fit)]
    put("graph.pool_build_s", [s.duration for s in pools])
    put("graph.pool_examples", [s.attrs["examples"] for s in pools])

    proximity = tracer.named("proximity.compute")
    put("proximity.compute_s", [s.duration for s in proximity])
    put("proximity.nnz", [s.attrs["nnz"] for s in proximity])
    put("proximity.peak_mb", [s.attrs["peak_mb"] for s in proximity], max)

    for name, value in _step_metrics(tracer, fits).items():
        put(name, [value] if value else [])
    for name, value in _fit_attribution(tracer, fits).items():
        put(name, [value])
    put("privacy.epsilon_spent", [rnd.epsilon for rnd in traced])

    put("serving.export_s", [s.duration for s in tracer.named("serving.export")])
    put("serving.open_s", [s.duration for s in tracer.named("serving.open")])
    put("serving.servable_bytes", [s.attrs["bytes"] for s in tracer.named("serving.open")])
    profile = profiler.profile()
    for phase in ("gather", "matmul", "partition"):
        put(f"serving.{phase}_us", [profile.mean_seconds(phase) * 1e6] if profile.steps else [])
    offline = [
        s for loop in tracer.named("serving.offline") for s in tracer.named("serving.top_k", within=loop)
    ]
    put("serving.batch_ms", [s.duration * 1e3 for s in offline])

    health = [rnd.serve.health for rnd in traced]
    put("server.batches", [h["batches"] for h in health])
    requests = sum(h["requests"] for h in health)
    batches = sum(h["batches"] for h in health)
    put("server.mean_batch_size", [requests / batches] if batches else [])
    put("server.queue_wait_ms", _queue_waits_ms(tracer, traced))
    values["server.failed"] = float(sum(rnd.serve.failed for rnd in traced))

    put("evaluation.linkpred_s", [s.duration for s in tracer.named("evaluation.linkpred")])
    strucequ = tracer.named("evaluation.strucequ")
    put("evaluation.strucequ_s", [s.duration for s in strucequ])
    put("evaluation.strucequ_pairs", [s.attrs["pairs"] for s in strucequ])
    put(
        "evaluation.peak_mb",
        [s.attrs["peak_mb"] for s in tracer.named("evaluation.linkpred") + strucequ],
        max,
    )
    put("evaluation.strucequ_pearson", [rnd.strucequ for rnd in traced])

    put(
        "trace.overhead_pct",
        [(median([r.seconds for r in traced]) / median([r.seconds for r in untraced]) - 1)
         * 100.0],
    )
    return values, not_run
