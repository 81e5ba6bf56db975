"""Worker-scaling benchmark for hogwild shared-memory training.

Measures training throughput (steps/sec) of the non-private SE trainer at
1, 2 and 4 hogwild workers on a ~20k-node preferential-attachment graph and
writes the curve to ``BENCH_hogwild_scaling.json``.  The scaling *floor* is
enforced only on machines with >= 4 cores (``os.cpu_count()`` counts
logical CPUs; CI relaxes the floor via ``REPRO_BENCH_MIN_HOGWILD_SPEEDUP``)
— the curve itself is recorded everywhere so single-core runs still leave
an artifact.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.config import TrainingConfig
from repro.embedding import SEGEmbTrainer
from repro.graph.generators import barabasi_albert_graph
from repro.proximity import get_proximity

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hogwild workers require the fork start method",
)

NUM_NODES = 20_000
STEPS = 600
TRAIN = TrainingConfig(
    embedding_dim=32,
    epochs=STEPS,
    batch_size=128,
    learning_rate=0.05,
    negative_samples=5,
)


def _steps_per_second(graph, workers: int) -> float:
    trainer = SEGEmbTrainer(
        proximity=get_proximity("degree"),
        config=TRAIN,
        seed=11,
        workers=workers,
    )
    started = time.perf_counter()
    trainer.fit(graph)
    elapsed = time.perf_counter() - started
    assert trainer.result_.epochs_run == STEPS
    return STEPS / elapsed


def test_hogwild_worker_scaling(bench_artifact):
    graph = barabasi_albert_graph(NUM_NODES, 3, seed=7, method="batched")
    curve = {workers: _steps_per_second(graph, workers) for workers in (1, 2, 4)}

    speedup_2 = curve[2] / curve[1]
    speedup_4 = curve[4] / curve[1]
    floor = float(os.environ.get("REPRO_BENCH_MIN_HOGWILD_SPEEDUP", "2.0"))
    bench_artifact(
        "hogwild_scaling",
        {
            "num_nodes": NUM_NODES,
            "num_edges": graph.num_edges,
            "steps": STEPS,
            "batch_size": TRAIN.batch_size,
            "cpu_count": os.cpu_count(),
            "steps_per_second": {str(w): round(v, 2) for w, v in curve.items()},
            "speedup_2_workers": round(speedup_2, 3),
            "speedup_4_workers": round(speedup_4, 3),
            "floor_4_workers": floor,
            "floor_enforced": (os.cpu_count() or 1) >= 4,
        },
    )
    print(
        f"\nhogwild scaling on {NUM_NODES} nodes: "
        + ", ".join(f"{w}w={v:.0f} steps/s" for w, v in curve.items())
        + f" (4w speedup {speedup_4:.2f}x)"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup_4 >= floor, (
            f"4-worker speedup {speedup_4:.2f}x below the {floor:.1f}x floor"
        )
