"""Per-edge reference for the Watts–Strogatz rewiring.

:func:`repro.graph.generators.watts_strogatz_graph` reads its PCG64 stream
as raw words and decodes only the rewire events.  The function here is the
same algorithm written one edge at a time, with one ``rng.random()`` per
edge and one ``rng.integers()`` per rewire attempt: the oracle the replay is
checked against, edge for edge and down to the generator's end state.
"""

from __future__ import annotations

import numpy as np

from repro import Graph


def watts_strogatz_graph(
    num_nodes: int,
    neighbors: int,
    rewire_probability: float,
    rng: np.random.Generator,
    name: str = "watts-strogatz",
) -> Graph:
    """:func:`repro.graph.generators.watts_strogatz_graph`, one edge at a time."""
    k = int(neighbors)
    edge_set: set[tuple[int, int]] = set()
    for u in range(num_nodes):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % num_nodes
            edge_set.add((min(u, v), max(u, v)))
    edges = list(edge_set)
    rewired: set[tuple[int, int]] = set()
    for u, v in edges:
        if rng.random() < rewire_probability:
            for _ in range(50):
                w = int(rng.integers(0, num_nodes))
                key = (min(u, w), max(u, w))
                if w != u and key not in rewired and key not in edge_set:
                    rewired.add(key)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    return Graph(num_nodes, list(rewired), name=name)
