"""End-to-end benchmark of the private publish -> serve -> evaluate path.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload private-publish-20k --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
plus the tracing overhead.  Every metric is printed by name and unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full run
record (environment, per-kind failure counts, sample counts) is written
to ``e2ebench/_results/``.  The exit code is 1 when a correctness check
fails and 2 when the run cannot start.  See ``e2ebench/README.md`` for
the workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit, better, bound): what BENCHMARK.json declares, in print order.
#: Each bound is about three times the largest quartile spread of ten runs
#: per gated workload, capped below the 0.25 of ``setup_s``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("fit_s", "s", "lower", 0.2),
    ("publish_s", "s", "lower", 0.24),
    ("eval_s", "s", "lower", 0.22),
    ("pipeline_s", "s", "lower", 0.16),
    ("linkpred_auc", "1", "higher", 0.1),
    ("topk_qps", "queries/s", "higher", 0.2),
    ("serve_rps", "req/s", "higher", 0.22),
    ("serve_p50_ms", "ms", "lower", 0.2),
    ("serve_p99_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better)
PER_LAYER = (
    ("graph.generate_s", "s", "lower"),
    ("graph.split_s", "s", "lower"),
    ("graph.pool_build_s", "s", "lower"),
    ("graph.pool_examples", "count", "higher"),
    ("proximity.compute_s", "s", "lower"),
    ("proximity.nnz", "count", "lower"),
    ("proximity.peak_mb", "MB", "lower"),
    ("engine.steps", "count", "higher"),
    ("engine.step_ms", "ms", "lower"),
    ("engine.sample_ms", "ms", "lower"),
    ("engine.gradients_ms", "ms", "lower"),
    ("engine.perturb_ms", "ms", "lower"),
    ("engine.descend_ms", "ms", "lower"),
    ("engine.averaging_ms", "ms", "lower"),
    ("engine.overhead_ms", "ms", "lower"),
    ("engine.touched_rows", "count", "lower"),
    ("engine.noise_draws", "count", "lower"),
    ("engine.setup_s", "s", "lower"),
    ("engine.unattributed_pct", "%", "lower"),
    ("privacy.accountant_ms", "ms", "lower"),
    ("privacy.epsilon_spent", "epsilon", "lower"),
    ("serving.export_s", "s", "lower"),
    ("serving.open_s", "s", "lower"),
    ("serving.servable_bytes", "bytes", "lower"),
    ("serving.gather_us", "us", "lower"),
    ("serving.matmul_us", "us", "lower"),
    ("serving.partition_us", "us", "lower"),
    ("serving.batch_ms", "ms", "lower"),
    ("server.batches", "count", "lower"),
    ("server.mean_batch_size", "rows", "higher"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.failed", "count", "lower"),
    ("evaluation.linkpred_s", "s", "lower"),
    ("evaluation.strucequ_s", "s", "lower"),
    ("evaluation.strucequ_pairs", "count", "higher"),
    ("evaluation.peak_mb", "MB", "lower"),
    ("evaluation.strucequ_pearson", "1", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_metrics(wl, setup, published_reps, rounds, rss_mb) -> tuple[dict, dict]:
    """End-to-end values in reference seconds, plus their sample counts.

    ``setup`` holds ``(wall seconds, scale)`` per setup repetition and
    ``published_reps`` the setup fits of ``serve-topk-20k``, already
    scaled; each round carries its per-stage scales (see :mod:`bench_speed`).
    """
    import numpy as np

    from bench_workloads import median

    setup_s = median([wall * scale for wall, scale in setup])
    if wl.fit_in_setup:  # already in reference seconds
        fit_s = median([rep.fit_s for rep in published_reps])
        publish = [s for rep in published_reps for s in rep.publish_s]
        pipeline = [
            setup_s + r.topk_s * r.scale["topk"] + r.eval_s * r.scale["eval"] for r in rounds
        ]
    else:
        fit_s = median([r.fit_s * r.scale["fit"] for r in rounds])
        publish = [s * r.scale["publish"] for r in rounds for s in r.publish_s]
        pipeline = [
            setup_s + r.fit_s * r.scale["fit"] + median(r.publish_s) * r.scale["publish"]
            + r.topk_s * r.scale["topk"] + r.eval_s * r.scale["eval"]
            for r in rounds
        ]
    # percentiles per round, then the median round: one stalled round in a
    # run moves the tail of a pooled sample, not the median of rounds
    p50 = [np.percentile(r.serve.latencies_ms, 50) * r.scale["serve"] for r in rounds]
    p99 = [np.percentile(r.serve.latencies_ms, 99) * r.scale["serve"] for r in rounds]
    metrics = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "publish_s": median(publish),
        "eval_s": median([r.eval_s * r.scale["eval"] for r in rounds]),
        "pipeline_s": median(pipeline),
        "linkpred_auc": median([r.auc for r in rounds]),
        "topk_qps": median([r.topk_qps / r.scale["topk"] for r in rounds]),
        "serve_rps": median([r.serve.rps / r.scale["serve"] for r in rounds]),
        "serve_p50_ms": median(p50),
        "serve_p99_ms": median(p99),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_reps": len(setup),
        "rounds": len(rounds),
        "publish_reps": len(publish),
        "requests_per_round": [int(r.serve.latencies_ms.size) for r in rounds],
        "requests_beyond_p99_per_round": [
            int((r.serve.latencies_ms > np.percentile(r.serve.latencies_ms, 99)).sum())
            for r in rounds
        ],
    }
    return metrics, samples


def measure(args, wl, tally, tracer, profiler, speed):
    """Setup repetitions, the warm-up round and the measured rounds."""
    import bench_workloads as bw
    from bench_speed import factor
    from bench_tracer import instrument

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        workdir = Path(workdir)
        if tracer is not None:
            instrument(tracer)
        setup, published_reps = [], []
        before = speed.sample() if speed is not None else None
        for _ in range(bw.SETUP_REPS):
            start = time.perf_counter()
            with bw.stage(tracer, "setup"):
                inputs, published = bw.prepare(wl, args.seed, workdir, tally, tracer, speed)
            wall = time.perf_counter() - start
            after = speed.sample() if speed is not None else None
            setup.append((wall, factor(before, after) if speed is not None else 1.0))
            before = after
            if published is not None:
                if published_reps:
                    published_reps[-1].servable.close()
                published_reps.append(published)
        if tracer is not None:
            tracer.restore()
        if wl.fit_in_setup and not published_reps:
            raise RuntimeError(f"setup fit failed: {tally.problems}")
        published = published_reps[-1] if published_reps else None

        def one_round(traced: bool, workload=wl):
            if traced:
                instrument(tracer)
            try:
                return bw.run_round(
                    workload, inputs, published, args.seed, workdir, tally,
                    tracer if traced else None, profiler if traced else None, speed,
                )
            finally:
                if traced:
                    tracer.restore()

        rounds = []
        try:
            one_round(False, replace(wl, steps=max(1, wl.steps // bw.WARMUP_STEPS_DIVISOR)))
            begin = time.perf_counter()
            while True:
                rounds.append(one_round(tracer is not None and len(rounds) % 2 == 1))
                elapsed = time.perf_counter() - begin
                enough = len(rounds) >= (2 if tracer is not None else 1)
                if enough and elapsed + elapsed / len(rounds) > args.seconds:
                    break
        finally:
            if published is not None:
                published.servable.close()
    return setup, published_reps, rounds


def run(args) -> int:
    import bench_layers
    import bench_workloads as bw
    from bench_checks import check_finite
    from bench_record import run_record
    from bench_speed import SpeedReference
    from bench_tracer import Tracer
    from repro.serving import QueryProfiler

    wl = bw.WORKLOADS[args.workload]
    trace = bool(args.trace)
    tally = bw.Tally()
    tracer = Tracer() if trace else None
    profiler = QueryProfiler() if trace else None
    if trace:
        tracer.begin("workload", workload=wl.name)
    # traced runs report raw per-layer times, so they skip the reference
    setup, published_reps, rounds = measure(
        args, wl, tally, tracer, profiler, None if trace else SpeedReference()
    )

    record = run_record(ROOT, wl.name, args.seed, args.seconds, trace)
    record["why"] = wl.why
    record["setup"] = [{"wall_s": wall, "scale": scale} for wall, scale in setup]
    record["rounds"] = [
        {"traced": r.traced, "seconds": r.seconds, "fit_s": r.fit_s, "publish_s": r.publish_s,
         "topk_qps": r.topk_qps, "serve_rps": r.serve.rps, "eval_s": r.eval_s,
         "scale": r.scale}
        for r in rounds
    ]
    if trace:
        tracer.end(tracer.spans[0])
        metrics, not_run = bench_layers.layer_metrics(wl, tracer, rounds, profiler)
        record["not_run"] = not_run
        record["trace_overhead_pct"] = metrics["trace.overhead_pct"]
        table = PER_LAYER
    else:
        metrics, record["samples"] = end_to_end_metrics(
            wl, setup, published_reps, rounds, bw.peak_rss_mb()
        )
        record["trace_overhead_pct"] = "measured by --trace 1 runs"
        table = END_TO_END
    problems = check_finite({name: metrics[name] for name, *_ in table})
    if problems:
        tally.add("metrics", problems)
    return report(wl, args, record, metrics, table, tally, len(rounds))


def report(wl, args, record, metrics, table, tally, rounds: int) -> int:
    """Write the run record, print every metric and the result line."""
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    values = {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in table}
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_share=failed / attempted,
        problems=tally.problems,
        metrics=values,
    )
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )

    print(f"workload {wl.name} seed {args.seed} ({rounds} rounds, trace={args.trace})")
    for name, unit, *_ in table:
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    print(f"  failed share: {failed}/{attempted}")
    for problem in tally.problems:
        print(f"  FAILED CHECK {problem}")
    correct = not tally.problems
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}
    ))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
