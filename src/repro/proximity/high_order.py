"""High-order proximity measures: Katz, personalised PageRank, DeepWalk.

The DeepWalk proximity is the one used by the paper's headline variant
SE-PrivGEmb\\ :sub:`DW`.  Following the NetMF/TADW formulation the paper
cites ([22], [24]), the DeepWalk proximity of a graph is the windowed
transition-matrix average ``(1/T) Σ_{t=1..T} (D^{-1} A)^t`` scaled by the
graph volume — the expected random-walk co-occurrence between node pairs.

All three measures are sparse-first: the spectral-radius convergence check
runs as sparse Lanczos iteration on the CSR adjacency (no dense
``eigvalsh``), Katz and PPR solve their resolvent systems with
:func:`scipy.sparse.linalg.spsolve`, and DeepWalk accumulates CSR
transition powers with an optional truncation threshold that bounds
fill-in on large graphs.

``scipy.sparse.linalg`` is imported inside the three functions that call
it (``spectral_radius``, Katz and PPR's sparse solves), not at module
level: it pulls in ``scipy.linalg`` and its OpenBLAS, which a run that only
uses degree or DeepWalk proximity never needs resident.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from ..exceptions import ProximityError
from ..graph import Graph
from ..utils.logging import get_logger
from .base import ProximityMeasure

_LOGGER = get_logger("proximity.high_order")

__all__ = [
    "spectral_radius",
    "KatzProximity",
    "PersonalizedPageRankProximity",
    "DeepWalkProximity",
]


def spectral_radius(
    adjacency: _sp.spmatrix | np.ndarray,
    iterations: int = 200,
    tolerance: float = 1e-10,
) -> float:
    """Spectral radius of a symmetric matrix, without a dense workspace.

    Uses sparse Lanczos (``eigsh``, accurate to machine precision even for
    near-degenerate leading eigenvalues) with a power-iteration fallback —
    the dense ``eigvalsh`` the seed used allocated an n×n workspace just to
    read off one number.  The Katz convergence guard relies on this value,
    so a plain power iteration alone would be too weak: it can stall below
    the true radius when the two leading eigenvalues nearly coincide and
    silently accept a divergent ``beta``.

    ``iterations`` and ``tolerance`` only govern the power-iteration
    fallback, which engages when ARPACK itself fails (rare).
    """
    n = adjacency.shape[0]
    if n == 0:
        return 0.0
    matrix = adjacency if _sp.issparse(adjacency) else np.asarray(adjacency, dtype=float)
    if _sp.issparse(matrix):
        if matrix.nnz == 0:
            return 0.0
    elif not np.any(matrix):
        return 0.0
    if n <= 2:
        dense = matrix.toarray() if _sp.issparse(matrix) else matrix
        return float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    from scipy.sparse import linalg as _spla

    try:
        extreme = _spla.eigsh(
            matrix.astype(float), k=1, which="LM", return_eigenvectors=False
        )
        return float(np.max(np.abs(extreme)))
    except _spla.ArpackNoConvergence as exc:
        # ARPACK hands back the eigenvalues it *did* converge — still far
        # more accurate than the power-iteration fallback below
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            return float(np.max(np.abs(exc.eigenvalues)))
    except _spla.ArpackError:  # pragma: no cover - exotic ARPACK breakage
        # only ARPACK-internal failures may degrade to power iteration;
        # anything else (dtype bugs, scipy regressions) must surface
        pass
    # Deterministic, non-degenerate start vector: all-ones plus a slope so
    # it is not orthogonal to sign-alternating eigenvectors.
    x = np.ones(n) + np.linspace(0.0, 1.0, n)
    x /= np.linalg.norm(x)
    radius = 0.0
    for _ in range(iterations):
        y = matrix @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        if abs(norm - radius) <= tolerance * max(1.0, norm):
            return norm
        radius = norm
        x = y / norm
    return radius


def _transition_and_inv_degrees(
    adjacency: _sp.csr_matrix,
) -> tuple[_sp.csr_matrix, np.ndarray, np.ndarray]:
    """Row-stochastic ``D^{-1} A`` plus the degree vectors, all sparse."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_degrees = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
    transition = _sp.diags(inv_degrees) @ adjacency
    return transition.tocsr(), degrees, inv_degrees


def _clamp_nonnegative(matrix: _sp.spmatrix) -> _sp.csr_matrix:
    """Zero out tiny numerical negatives in a sparse result."""
    csr = matrix.tocsr()
    np.maximum(csr.data, 0.0, out=csr.data)
    csr.eliminate_zeros()
    return csr


class KatzProximity(ProximityMeasure):
    """Katz index: ``P = Σ_{t>=1} β^t A^t = (I - βA)^{-1} - I``.

    ``beta`` must be smaller than the reciprocal of the spectral radius of
    ``A`` for the series to converge; the check runs lazily at compute time
    via :func:`spectral_radius` (sparse Lanczos).  The sparse path solves
    ``(I - βA) X = I`` with a sparse LU factorisation instead of forming
    the dense inverse.
    """

    name = "katz"
    supports_sparse = True
    # the resolvent is structurally full on a connected graph: CSR storage
    # of ~n² entries costs *more* than the dense array, so the CSR path is
    # opt-in (compute(..., sparse=True)) rather than the default
    prefers_sparse = False

    def __init__(self, beta: float = 0.05) -> None:
        if beta <= 0:
            raise ProximityError(f"beta must be positive, got {beta}")
        self.beta = float(beta)

    def _check_convergence(self, adjacency: _sp.spmatrix | np.ndarray) -> None:
        radius = spectral_radius(adjacency)
        if radius > 0 and self.beta >= 1.0 / radius:
            raise ProximityError(
                f"beta={self.beta} does not converge: spectral radius is {radius:.4f}, "
                f"beta must be < {1.0 / radius:.4f}"
            )

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        adjacency = self._sparse_adjacency(graph)
        self._check_convergence(adjacency)
        n = adjacency.shape[0]
        dense = adjacency.toarray()
        katz = np.linalg.inv(np.eye(n) - self.beta * dense) - np.eye(n)
        # numerical noise can yield tiny negatives; the series is non-negative
        np.maximum(katz, 0.0, out=katz)
        return katz

    def compute_sparse_matrix(self, graph: Graph) -> _sp.csr_matrix:
        from scipy.sparse.linalg import spsolve

        adjacency = self._sparse_adjacency(graph)
        self._check_convergence(adjacency)
        n = adjacency.shape[0]
        identity = _sp.identity(n, format="csc")
        system = (identity - self.beta * adjacency).tocsc()
        solution = spsolve(system, identity)
        katz = _sp.csr_matrix(solution) - _sp.identity(n, format="csr")
        return _clamp_nonnegative(katz)

    def __repr__(self) -> str:
        return f"KatzProximity(beta={self.beta})"


class PersonalizedPageRankProximity(ProximityMeasure):
    """Personalised PageRank matrix ``P = (1-α) (I - α D^{-1} A)^{-1}``.

    Row ``i`` is the PPR vector of node ``i``; entry ``(i, j)`` is the
    stationary probability of a random walk with restart at ``i`` visiting
    ``j``.  The sparse path solves ``(I - αT) X = (1-α) I`` with a sparse
    LU factorisation.
    """

    name = "ppr"
    supports_sparse = True
    # same structurally-full resolvent as Katz: CSR is opt-in, not default
    prefers_sparse = False

    def __init__(self, damping: float = 0.85) -> None:
        if not 0 < damping < 1:
            raise ProximityError(f"damping must be in (0, 1), got {damping}")
        self.damping = float(damping)

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        adjacency = self._dense_adjacency(graph)
        n = adjacency.shape[0]
        degrees = adjacency.sum(axis=1)
        inv_degrees = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
        transition = adjacency * inv_degrees[:, None]
        ppr = (1.0 - self.damping) * np.linalg.inv(np.eye(n) - self.damping * transition)
        np.maximum(ppr, 0.0, out=ppr)
        return ppr

    def compute_sparse_matrix(self, graph: Graph) -> _sp.csr_matrix:
        from scipy.sparse.linalg import spsolve

        adjacency = self._sparse_adjacency(graph)
        transition, _, _ = _transition_and_inv_degrees(adjacency)
        n = adjacency.shape[0]
        identity = _sp.identity(n, format="csc")
        system = (identity - self.damping * transition).tocsc()
        solution = spsolve(system, identity)
        ppr = (1.0 - self.damping) * _sp.csr_matrix(solution)
        return _clamp_nonnegative(ppr)

    def __repr__(self) -> str:
        return f"PersonalizedPageRankProximity(damping={self.damping})"


class DeepWalkProximity(ProximityMeasure):
    """Random-walk co-occurrence (DeepWalk) proximity.

    ``P = (vol(G) / T) · Σ_{t=1..T} (D^{-1} A)^t D^{-1}`` — the expected
    windowed co-occurrence of node pairs under uniform random walks with
    window size ``T`` (the NetMF closed form the paper builds on).  This is
    the proximity behind SE-PrivGEmb\\ :sub:`DW`.

    Parameters
    ----------
    window_size:
        The random-walk window ``T``.
    use_volume_scaling:
        If ``True`` (default) the matrix is scaled by ``vol(G) = Σ_v d_v``;
        scaling does not change the structure preference (Theorem 3 only
        depends on ratios ``p_ij / min(P)``), but keeps values in the
        range the NetMF literature reports.
    truncation_threshold:
        Sparse path only: after each transition power, entries whose walk
        probability falls below this threshold are dropped.  ``0`` (default)
        keeps the computation exact — bit-for-bit the same series as the
        dense path — while a small positive value (e.g. ``1e-2``) bounds
        the fill-in of ``(D^{-1}A)^t`` so the proximity of a large sparse
        graph never approaches n×n storage.  The dense path ignores it.
        A positive threshold also flips the default backend to CSR (the
        scale path); with ``0`` the default stays dense because exact
        powers are structurally near-full.
    """

    name = "deepwalk"
    supports_sparse = True

    def __init__(
        self,
        window_size: int = 5,
        use_volume_scaling: bool = True,
        truncation_threshold: float = 0.0,
    ) -> None:
        if window_size < 1:
            raise ProximityError(f"window_size must be >= 1, got {window_size}")
        if truncation_threshold < 0:
            raise ProximityError(
                f"truncation_threshold must be non-negative, got {truncation_threshold}"
            )
        self.window_size = int(window_size)
        self.use_volume_scaling = bool(use_volume_scaling)
        self.truncation_threshold = float(truncation_threshold)
        # Exact transition powers fill toward n² on small-world graphs, and
        # a structurally-full CSR costs more than the dense array (same
        # reasoning as Katz/PPR): CSR is the default only when truncation
        # bounds the fill-in; the exact CSR path stays available via
        # compute(graph, sparse=True).
        self.prefers_sparse = self.truncation_threshold > 0

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        adjacency = self._dense_adjacency(graph)
        degrees = adjacency.sum(axis=1)
        inv_degrees = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
        transition = adjacency * inv_degrees[:, None]

        accumulated = np.zeros_like(adjacency)
        power = np.eye(adjacency.shape[0])
        for _ in range(self.window_size):
            power = power @ transition
            accumulated += power
        accumulated /= self.window_size
        proximity = accumulated * inv_degrees[None, :]
        if self.use_volume_scaling:
            proximity *= float(degrees.sum())
        np.maximum(proximity, 0.0, out=proximity)
        return proximity

    def compute_sparse_matrix(
        self, graph: Graph, rows: np.ndarray | None = None
    ) -> _sp.csr_matrix:
        adjacency = self._sparse_adjacency(graph)
        transition, degrees, inv_degrees = _transition_and_inv_degrees(adjacency)

        n = adjacency.shape[0]
        # a row of (M @ T) is (row of M) @ T and truncation is elementwise,
        # so starting the recursion from the rows of T tracks the same rows
        # of the full powers exactly
        power = transition.copy() if rows is None else transition[rows]
        cells = n * power.shape[0]
        accumulated = self._truncate(power).copy()
        fill_warned = False
        for _ in range(self.window_size - 1):
            power = self._truncate((power @ transition).tocsr())
            accumulated = (accumulated + power).tocsr()
            if (
                not fill_warned
                and self.truncation_threshold <= 0
                and n >= 4096  # below this, a filled matrix is a few MB of noise
                and accumulated.nnz > 0.5 * cells
            ):
                # exact powers on a small-world graph fill toward n² —
                # correct, but then CSR costs *more* than dense storage
                _LOGGER.warning(
                    "exact DeepWalk CSR powers filled to %.0f%% of their "
                    "cells on %d nodes; set truncation_threshold > 0 to bound "
                    "memory on large graphs",
                    100.0 * accumulated.nnz / cells,
                    n,
                )
                fill_warned = True
        accumulated = accumulated / self.window_size
        proximity = accumulated @ _sp.diags(inv_degrees)
        if self.use_volume_scaling:
            proximity = proximity * float(degrees.sum())
        return _clamp_nonnegative(proximity)

    def locality_radius(self) -> int:
        # a T-step walk from row i reads transition rows within distance
        # T-1, and an edge flip changes its endpoints' transition rows
        return self.window_size

    def reused_row_scale(self, old: Graph, new: Graph) -> float:
        if not self.use_volume_scaling:
            return 1.0
        vol_old, vol_new = float(old.degrees().sum()), float(new.degrees().sum())
        if vol_old <= 0 or vol_new <= 0:
            return float("nan")
        return vol_new / vol_old

    def _truncate(self, power: _sp.csr_matrix) -> _sp.csr_matrix:
        """Drop walk probabilities below the threshold to bound fill-in."""
        if self.truncation_threshold <= 0:
            return power
        power.data[power.data < self.truncation_threshold] = 0.0
        power.eliminate_zeros()
        return power

    def __repr__(self) -> str:
        return (
            f"DeepWalkProximity(window_size={self.window_size}, "
            f"use_volume_scaling={self.use_volume_scaling}, "
            f"truncation_threshold={self.truncation_threshold})"
        )
