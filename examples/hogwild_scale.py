"""Million-node hogwild training: build big, shard the step stream, train.

Run with:

    python examples/hogwild_scale.py

The script builds a million-node preferential-attachment graph with the
vectorised (``method="batched"``) generator, trains the non-private SE
trainer over it with hogwild workers sharing the embedding matrices through
``multiprocessing.shared_memory``, and reports throughput plus the
per-worker step/loss reports.

Set ``REPRO_EXAMPLE_SMOKE=1`` to shrink the run to CI-smoke size
(20k nodes).  Set ``REPRO_HOGWILD_WORKERS`` to change the worker count
(default 2).
"""

from __future__ import annotations

import os
import time

from repro import TrainingConfig
from repro.embedding import SEGEmbTrainer
from repro.graph.generators import barabasi_albert_graph
from repro.proximity import get_proximity

SMOKE = os.environ.get("REPRO_EXAMPLE_SMOKE") == "1"
NUM_NODES = 20_000 if SMOKE else 1_000_000
STEPS = 200 if SMOKE else 2_000
WORKERS = int(os.environ.get("REPRO_HOGWILD_WORKERS", "2"))


def main() -> None:
    started = time.perf_counter()
    graph = barabasi_albert_graph(NUM_NODES, 3, seed=7, method="batched")
    print(
        f"Built {graph} in {time.perf_counter() - started:.1f}s "
        f"(batched Batagelj-Brandes generator)"
    )

    training = TrainingConfig(
        embedding_dim=32,
        epochs=STEPS,
        batch_size=128,
        learning_rate=0.05,
        negative_samples=5,
    )
    trainer = SEGEmbTrainer(
        proximity=get_proximity("degree"),
        config=training,
        seed=11,
        workers=WORKERS,
    )

    started = time.perf_counter()
    trainer.fit(graph)
    elapsed = time.perf_counter() - started
    result = trainer.result_

    print(
        f"Trained {result.epochs_run} steps across {WORKERS} workers "
        f"in {elapsed:.1f}s ({result.epochs_run / elapsed:.0f} steps/s)"
    )
    print(f"Final loss: {result.losses[-1]:.4f}")
    if trainer.last_worker_reports:
        for report in trainer.last_worker_reports:
            print(
                f"  shard {report.shard}: {report.steps} steps in pid {report.pid}"
            )
    print(f"Embeddings: {trainer.embeddings_.shape} ({trainer.embeddings_.dtype})")


if __name__ == "__main__":
    main()
