"""Smoke-size tests of the end-to-end benchmark itself.

They show that every correctness check can fail (a corrupted top-k answer,
a servable row one ulp off, a budget that stops the fit early, a NaN
metric), that a traced round yields every per-layer metric, that the
tracer restores what it wraps, and that ``BENCHMARK.json`` declares what
``run.py`` prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_checks  # noqa: E402
import bench_layers  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402
from bench_speed import SpeedReference  # noqa: E402
from bench_tracer import Tracer, instrument  # noqa: E402
from repro import PrivacyConfig, TrainingConfig  # noqa: E402
from repro.graph import load_dataset  # noqa: E402
from repro.models import get_method  # noqa: E402
from repro.serving import QueryEngine, QueryProfiler, ServableModel  # noqa: E402

SMOKE = replace(
    bw.WORKLOADS["utility-deepwalk-1k"],
    num_nodes=120,
    steps=10,
    topk_queries=64,
    serve_requests=64,
)


@pytest.fixture(scope="module")
def embeddings():
    return np.random.default_rng(0).standard_normal((300, 16))


def _answer(emb, nodes, k=5):
    result = QueryEngine(emb, max_batch=16, max_k=k).top_k(nodes, k)
    return result.ids.copy(), result.scores.copy()


# --------------------------------------------------------------------- #
# top-k oracle
# --------------------------------------------------------------------- #
def test_topk_oracle_accepts_engine_answers(embeddings):
    nodes = np.arange(0, 300, 37)
    ids, scores = _answer(embeddings, nodes)
    assert bench_checks.check_topk(embeddings, nodes, ids, scores, 5) == []


@pytest.mark.parametrize(
    "corrupt",
    ["swap_ids", "replace_last", "include_self", "shift_score"],
)
def test_topk_oracle_rejects_corrupted_answer(embeddings, corrupt):
    nodes = np.array([3, 50])
    ids, scores = _answer(embeddings, nodes)
    if corrupt == "swap_ids":
        ids[0, [0, 1]] = ids[0, [1, 0]]
    elif corrupt == "replace_last":
        oracle = bench_checks.oracle_cosine(embeddings, 3)
        ids[0, -1] = int(np.argmin(oracle))
        scores[0, -1] = oracle[ids[0, -1]]
    elif corrupt == "include_self":
        ids[0, -1] = 3
        scores[0, -1] = 1.0
    else:
        scores[1, 2] += 1e-3
    assert bench_checks.check_topk(embeddings, nodes, ids, scores, 5)


def test_topk_oracle_enforces_ascending_id_ties():
    base = np.random.default_rng(1).standard_normal((4, 8))
    emb = np.vstack([base, base[1], base[1], base[1]])  # rows 4, 5, 6 copy row 1
    ids, scores = _answer(emb, np.array([1]), k=4)
    assert ids[0, :3].tolist() == [4, 5, 6]
    assert bench_checks.check_topk(emb, [1], ids, scores, 4) == []
    reordered = ids.copy()
    reordered[0, :3] = [6, 5, 4]
    problems = bench_checks.check_topk(emb, [1], reordered, scores, 4)
    assert any("ascending id" in p for p in problems)


# --------------------------------------------------------------------- #
# fit, servable and finiteness checks
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_private_fit():
    graph = load_dataset("smallworld", num_nodes=60, seed=0)
    training = TrainingConfig(embedding_dim=8, batch_size=16, epochs=20)
    model = get_method("se_privgemb_deg").build(training, PrivacyConfig(), seed=0,
                                               proximity_cache="off")
    return graph, training, model.fit(graph)


def test_fit_check_passes_on_full_fit(small_private_fit):
    _, _, model = small_private_fit
    assert bench_checks.check_fit(model.result_, 20, PrivacyConfig().epsilon) == []


def test_fit_check_flags_budget_stop(small_private_fit):
    graph, training, _ = small_private_fit
    tight = PrivacyConfig(epsilon=0.5, noise_multiplier=5.0)
    model = get_method("se_privgemb_deg").build(training.with_updates(epochs=5000), tight,
                                               seed=0, proximity_cache="off")
    model.fit(graph)
    problems = bench_checks.check_fit(model.result_, 5000, tight.epsilon)
    assert any("requested steps" in p for p in problems)
    assert any("stopped_early" in p for p in problems)


def test_fit_check_flags_overspent_budget(small_private_fit):
    _, _, model = small_private_fit
    spent = model.result_.privacy_spent.epsilon
    assert bench_checks.check_fit(model.result_, 20, spent / 2)


def test_servable_check_catches_one_ulp(small_private_fit, tmp_path):
    _, _, model = small_private_fit
    model.export_servable(tmp_path / "m.servable")
    with ServableModel.open(tmp_path / "m.servable") as servable:
        emb, ctx = model.embeddings_, model.context_embeddings_
        assert bench_checks.check_servable(servable, emb, ctx) == []
        nudged = emb.copy()
        nudged[7, 3] = np.nextafter(nudged[7, 3], np.inf)
        assert bench_checks.check_servable(servable, nudged, ctx)
        nudged_ctx = ctx.copy()
        nudged_ctx[0, 0] = np.nextafter(nudged_ctx[0, 0], -np.inf)
        assert bench_checks.check_servable(servable, emb, nudged_ctx)


def test_finite_check():
    assert bench_checks.check_finite({"a": 1.0, "b": 0.0}) == []
    assert bench_checks.check_finite({"auc": float("nan")})
    assert bench_checks.check_finite({"fit_s": float("inf")})


# --------------------------------------------------------------------- #
# tracer and a smoke-size workload
# --------------------------------------------------------------------- #
def test_tracer_self_time_and_restore():
    from repro.engine.core import TrainingEngine

    original = TrainingEngine.__dict__["run"]
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id
    assert tracer.self_time(outer) == pytest.approx(outer.duration - inner.duration)
    instrument(tracer)
    assert TrainingEngine.__dict__["run"] is not original
    tracer.restore()
    assert TrainingEngine.__dict__["run"] is original


def test_smoke_workload_rounds_report_every_metric(tmp_path):
    tally = bw.Tally()
    tracer = Tracer()
    profiler = QueryProfiler()
    tracer.begin("workload")
    instrument(tracer)
    try:
        inputs, published = bw.prepare(SMOKE, 0, tmp_path, tally, tracer)
    finally:
        tracer.restore()
    rounds = [bw.run_round(SMOKE, inputs, published, 0, tmp_path, tally, None, None,
                           SpeedReference())]
    instrument(tracer)
    try:
        rounds.append(
            bw.run_round(SMOKE, inputs, published, 0, tmp_path, tally, tracer, profiler, None)
        )
    finally:
        tracer.restore()
    tracer.end(tracer.spans[0])
    assert tally.problems == []
    assert sum(tally.failed.values()) == 0

    layers, not_run = bench_layers.layer_metrics(SMOKE, tracer, rounds, profiler)
    assert set(layers) == {name for name, *_ in bench_run.PER_LAYER}
    assert not_run == []
    assert layers["engine.steps"] == SMOKE.steps
    assert layers["engine.perturb_ms"] > 0
    assert layers["engine.noise_draws"] == layers["engine.touched_rows"] * SMOKE.training.embedding_dim

    assert set(rounds[0].scale) == {"fit", "publish", "topk", "serve", "eval"}
    assert rounds[1].scale == dict.fromkeys(rounds[0].scale, 1.0)
    e2e, samples = bench_run.end_to_end_metrics(SMOKE, [(0.1, 1.0)], [], rounds[:1], 1.0)
    assert set(e2e) == {name for name, *_ in bench_run.END_TO_END}
    assert all(value > 0 for value in e2e.values())
    assert samples["requests_per_round"] == [SMOKE.serve_requests]


# --------------------------------------------------------------------- #
# the declared contract
# --------------------------------------------------------------------- #
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "e2ebench/run.py"
    gated = [w for w in bw.WORKLOADS.values() if w.gated]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in gated]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(bench_run.PER_LAYER)


def test_run_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("_*"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "serve-topk-20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
