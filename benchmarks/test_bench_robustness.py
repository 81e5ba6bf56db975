"""Recovery-overhead benchmark for the robustness layer (PR 10).

Two questions, answered with wall clocks and written to
``BENCH_robustness_*.json``:

* **Checkpoint tax** — the median, over interleaved pairs, of the
  supervised hogwild fit's wall time (periodic per-shard checkpoints)
  over the unsupervised fast-path floor's.  The target is a <= 5% tax at
  paper scale; locally the enforced ceiling defaults to a lenient 15%
  (two identical hogwild runs can differ by more than 5% from scheduler
  noise alone at benchmark scale) and is overridable via
  ``REPRO_BENCH_MAX_CHECKPOINT_TAX``.
* **Killed-shard recovery** — wall-clock of a fit whose shard 0 is crashed
  mid-run and restarted from its last checkpoint, vs. the uncrashed run:
  how many seconds one worker death actually costs end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

import pytest

from repro.config import TrainingConfig
from repro.embedding import SEGEmbTrainer
from repro.graph.generators import barabasi_albert_graph
from repro.proximity import get_proximity
from repro.robustness import FaultPlan, FaultRule, SupervisorPolicy

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hogwild workers require the fork start method",
)

NUM_NODES = 5_000
STEPS = 800
WORKERS = 2
CHECKPOINT_EVERY = 50
PAIRS = 7
TRAIN = TrainingConfig(
    embedding_dim=16,
    epochs=STEPS,
    batch_size=64,
    learning_rate=0.05,
    negative_samples=5,
)


def _fit_seconds(graph, supervision: SupervisorPolicy | None) -> float:
    trainer = SEGEmbTrainer(
        proximity=get_proximity("degree"),
        config=TRAIN,
        seed=11,
        workers=WORKERS,
        hogwild_resilience=supervision,
    )
    started = time.perf_counter()
    trainer.fit(graph)
    elapsed = time.perf_counter() - started
    assert trainer.result_.epochs_run == STEPS
    return elapsed


def test_checkpoint_tax_and_killed_shard_recovery(bench_artifact, tmp_path):
    graph = barabasi_albert_graph(NUM_NODES, 3, seed=7, method="batched")
    supervised = SupervisorPolicy(
        max_restarts=2,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=tmp_path / "ckpt",
        backoff_base=0.01,
        backoff_max=0.05,
    )

    # Interleaved floor/supervised pairs, gated on the median per-pair
    # ratio: each pair shares the machine's speed at that moment, so drift
    # cancels within a pair and one slow fit cannot swing the gate (a
    # best-of-3 per arm swung the tax from -9% to +20% on identical code).
    # The arm that runs first alternates, so an order effect cancels too.
    floor_times, supervised_times, ratios = [], [], []
    for pair in range(PAIRS):
        if pair % 2:
            supervised_times.append(_fit_seconds(graph, supervised))
            floor_times.append(_fit_seconds(graph, None))
        else:
            floor_times.append(_fit_seconds(graph, None))
            supervised_times.append(_fit_seconds(graph, supervised))
        ratios.append(supervised_times[-1] / floor_times[-1])
    floor_s = statistics.median(floor_times)
    supervised_s = statistics.median(supervised_times)
    tax = statistics.median(ratios) - 1.0

    # killed-shard recovery: crash shard 0 mid-run, resume from checkpoint
    crash_plan = FaultPlan(
        [
            FaultRule(
                "hogwild.worker.step",
                "crash",
                where={"shard": 0, "step": STEPS // WORKERS // 2, "incarnation": 0},
            )
        ]
    )
    with crash_plan:
        crashed_s = _fit_seconds(graph, supervised)
    # a recovery can finish inside the uncrashed runs' spread; it never
    # makes a fit faster, so a negative difference is reported as no cost
    recovery_overhead_s = max(0.0, crashed_s - supervised_s)

    max_tax = float(os.environ.get("REPRO_BENCH_MAX_CHECKPOINT_TAX", "0.15"))
    bench_artifact(
        "robustness_recovery",
        {
            "num_nodes": NUM_NODES,
            "steps": STEPS,
            "workers": WORKERS,
            "checkpoint_every": CHECKPOINT_EVERY,
            "floor_steps_per_second": round(STEPS / floor_s, 2),
            "supervised_steps_per_second": round(STEPS / supervised_s, 2),
            "pairs": PAIRS,
            "checkpoint_tax": round(tax, 4),
            "max_checkpoint_tax": max_tax,
            "uncrashed_seconds": round(supervised_s, 4),
            "crashed_recovered_seconds": round(crashed_s, 4),
            "recovery_overhead_seconds": round(recovery_overhead_s, 4),
        },
    )
    print(
        f"\nrobustness: floor={STEPS / floor_s:.0f} steps/s, "
        f"supervised={STEPS / supervised_s:.0f} steps/s (tax {tax:+.1%}), "
        f"killed-shard recovery cost {recovery_overhead_s:.2f}s"
    )
    assert tax <= max_tax, (
        f"checkpointing costs {tax:.1%} steps/sec (ceiling {max_tax:.0%}); "
        "raise REPRO_BENCH_MAX_CHECKPOINT_TAX only with a written justification"
    )
