"""Sparse proximity pipeline benchmark: ~20k nodes, no dense n×n allocation.

Runs the full graph → proximity → Algorithm-1 pool → one training epoch
pipeline on a ~20k-node sparse small-world graph with the CSR-backed
DeepWalk proximity, and asserts through ``tracemalloc`` (which tracks numpy
and scipy buffers) that peak Python-level allocation stays an order of
magnitude below the 8·n² bytes a single dense proximity matrix would cost.
The seed implementation densified at every stage; any regression that
silently reintroduces an n×n ndarray fails the floor assertion here.

Scale knob: ``REPRO_SPARSE_BENCH_NODES`` (default 20000).  Measured numbers
are recorded in ``benchmarks/RESULTS_sparse_proximity.md``.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from repro import TrainingConfig
from repro.embedding import SEGEmbTrainer
from repro.graph import load_dataset
from repro.proximity import DeepWalkProximity
from repro.utils.rng import ensure_rng

# floor of 4000: below that, fixed interpreter/import overhead (~7 MB)
# dominates the peak and the dense-fraction assertion loses its meaning
NUM_NODES = max(4000, int(os.environ.get("REPRO_SPARSE_BENCH_NODES", "20000")))
#: walk probabilities below this are dropped after each transition power;
#: bounds the fill-in of (D^-1 A)^t without touching the adjacency scale
TRUNCATION_THRESHOLD = 1e-2
TRAINING = TrainingConfig(
    embedding_dim=32, batch_size=1024, learning_rate=0.1, negative_samples=5, epochs=1
)


def test_sparse_proximity_pipeline_never_densifies():
    dense_bytes = 8 * NUM_NODES * NUM_NODES

    tracemalloc.start()
    tracemalloc.reset_peak()
    started = time.perf_counter()

    graph = load_dataset("smallworld", num_nodes=NUM_NODES, seed=3)
    graph_done = time.perf_counter()

    measure = DeepWalkProximity(
        window_size=5, truncation_threshold=TRUNCATION_THRESHOLD
    )
    proximity = measure.compute(graph, sparse=True)
    proximity_done = time.perf_counter()

    trainer = SEGEmbTrainer(proximity, config=TRAINING, seed=0)
    trainer._setup(graph, ensure_rng(0))
    pool_done = time.perf_counter()

    result = trainer.engine.run(1)
    train_done = time.perf_counter()

    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print()
    print(
        f"sparse proximity pipeline on {NUM_NODES}-node smallworld "
        f"({graph.num_edges} edges):"
    )
    print(f"  graph build             : {graph_done - started:8.2f} s")
    print(
        f"  DeepWalk proximity (CSR) : {proximity_done - graph_done:8.2f} s   "
        f"nnz={proximity.nnz} ({proximity.nnz / NUM_NODES**2:.4%} of n^2)"
    )
    print(f"  Algorithm-1 pool (bulk)  : {pool_done - proximity_done:8.2f} s")
    print(
        f"  1 training epoch (B={TRAINING.batch_size}): {train_done - pool_done:8.3f} s   "
        f"loss={result.losses[-1]:.4f}"
    )
    print(
        f"  peak allocation          : {peak / 1e6:8.0f} MB   "
        f"(dense n x n would be {dense_bytes / 1e6:.0f} MB)"
    )

    # Floor assertions (smoke mode): the pipeline must stay sparse end to end.
    assert proximity.is_sparse
    assert proximity.nnz < 0.05 * NUM_NODES * NUM_NODES
    # An 8x margin below one dense n×n matrix: a single densification at any
    # stage (proximity, objective binding, sampling, training) trips this.
    assert peak < dense_bytes / 8, (
        f"peak allocation {peak / 1e6:.0f} MB is too close to a dense n x n "
        f"matrix ({dense_bytes / 1e6:.0f} MB) — something densified"
    )
    # The run must have produced a usable epoch, not a degenerate no-op.
    assert result.epochs_run == 1
    assert proximity.min_positive > 0
