"""Shared settings for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, using
scaled-down experiment settings so the full harness completes in minutes on
a laptop.  Set the environment variable ``REPRO_BENCH_SCALE=paper`` to run
the paper-scale grid instead (hours of compute).

Each benchmark prints the resulting table; compare the rows against the
corresponding table/figure in the paper.  A record of which paper claims
reproduce is ROADMAP.md item 4.

Every benchmark also emits a ``BENCH_<test>.json`` artifact next to this
file (timings + any ``benchmark.extra_info`` the test recorded), so the
perf trajectory of the repo is machine-readable: CI uploads the files and
successive runs can be diffed.  The files are runtime artifacts
(gitignored — they change on every run); the headline numbers live in
``RESULTS_orchestrator.md``.  Tests that measure wall-clock themselves
(e.g. the orchestrator scaling benchmark) write through the
``bench_artifact`` fixture instead.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import pytest

from repro import TrainingConfig
from repro.experiments import ExperimentSettings

ARTIFACT_DIR = Path(__file__).resolve().parent


def write_bench_artifact(name: str, payload: dict) -> Path:
    """Write one BENCH_<name>.json artifact (overwriting earlier runs)."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    path = ARTIFACT_DIR / f"BENCH_{safe}.json"
    payload = {"recorded_unix_time": round(time.time(), 3), **payload}
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture
def bench_artifact():
    """Callable fixture: ``bench_artifact(name, payload_dict)`` -> Path."""
    return write_bench_artifact


@pytest.fixture
def benchmark(benchmark, request):
    """Wrap pytest-benchmark's fixture to emit a BENCH_*.json artifact."""
    yield benchmark
    stats_holder = getattr(benchmark, "stats", None)
    stats = getattr(stats_holder, "stats", None)
    if stats is None:
        return
    payload = {
        "test": request.node.nodeid,
        "mean_seconds": getattr(stats, "mean", None),
        "min_seconds": getattr(stats, "min", None),
        "max_seconds": getattr(stats, "max", None),
        "rounds": getattr(stats, "rounds", None),
        "extra_info": dict(getattr(benchmark, "extra_info", {}) or {}),
    }
    write_bench_artifact(request.node.name, payload)


def _bench_settings() -> ExperimentSettings:
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper":
        return ExperimentSettings.paper_scale()
    return ExperimentSettings(
        datasets=("chameleon", "power", "arxiv"),
        dataset_scale=0.4,
        repeats=1,
        training=TrainingConfig(
            embedding_dim=16,
            batch_size=96,
            learning_rate=0.1,
            negative_samples=5,
            epochs=120,
        ),
        epsilons=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5),
        seed=7,
    )


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Experiment settings shared by every benchmark."""
    return _bench_settings()


@pytest.fixture(scope="session")
def quick_bench_settings() -> ExperimentSettings:
    """An even smaller grid for the parameter-sweep tables (II-V)."""
    settings = _bench_settings()
    return settings.with_updates(
        datasets=("chameleon",),
        training=settings.training.with_updates(epochs=60),
        epsilons=(0.5, 2.0, 3.5),
    )
