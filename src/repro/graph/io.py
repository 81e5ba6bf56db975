"""Edge-list text IO.

The public datasets the paper uses are distributed as whitespace-separated
edge lists; this module reads and writes that format so users can plug their
own graphs into the library.
"""

from __future__ import annotations

from pathlib import Path

from ..exceptions import GraphError
from .graph import Graph

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(
    path: str | Path,
    num_nodes: int | None = None,
    comment_prefix: str = "#",
    name: str | None = None,
) -> Graph:
    """Read a whitespace-separated edge list file into a :class:`Graph`.

    Lines starting with ``comment_prefix`` and blank lines are skipped.
    Node identifiers must be non-negative integers; they are used directly as
    node ids (so gaps create isolated nodes unless ``num_nodes`` says
    otherwise).
    """
    path = Path(path)
    edges: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(comment_prefix):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(
                    f"{path}:{line_number}: expected at least two columns, got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(
                    f"{path}:{line_number}: non-integer node id in {line!r}"
                ) from exc
            if u == v:
                continue  # silently drop self-loops, as the paper's preprocessing does
            edges.append((u, v))
    if not edges and num_nodes is None:
        raise GraphError(f"{path}: no edges found and num_nodes not given")
    return Graph.from_edge_list(edges, num_nodes=num_nodes, name=name or path.stem)


def write_edge_list(graph: Graph, path: str | Path, header: bool = True) -> None:
    """Write a graph as a whitespace-separated edge list."""
    path = Path(path)
    lines: list[str] = []
    if header:
        lines.append(f"# {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges")
    lines.extend(f"{int(u)} {int(v)}" for u, v in graph.edges)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

