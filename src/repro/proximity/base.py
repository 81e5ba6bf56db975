"""Base classes for node-proximity measures.

Definition 4 of the paper: a proximity matrix ``P`` is a ``|V| x |V|`` matrix
whose entry ``p_ij`` quantifies the structural closeness of ``v_i`` and
``v_j``.  SE-PrivGEmb accepts *any* such matrix; Theorem 3 shows that with
the right negative-sampling design the learned inner products preserve
``log(p_ij / (k·min(P)))``.

:class:`ProximityMeasure` is the strategy interface (one concrete subclass
per measure).  :class:`ProximityMatrix` wraps the computed matrix — **CSR
by default** for the measures whose support is sparse, dense as a fallback —
with the derived quantities the trainer needs:

* ``min_positive`` — ``min(P) = min{p_ij | p_ij > 0}``,
* ``row_sums`` — ``Σ_j p_ij`` per centre node,
* ``pair_value(i, j)`` / ``pair_values`` — fast ``p_ij`` lookup,
* ``negative_sampling_mass(i)`` — ``min(P)/Σ_j p_ij`` (Theorem 3),
* ``theoretical_optimal_inner_product[s]`` — the Eq. (10) optima.

Every derived quantity is computed directly on the CSR arrays; the dense
``|V| x |V|`` view (:attr:`ProximityMatrix.matrix`) is materialised only on
demand and never on the training path, which is what lets proximity
construction scale past graphs where an n×n ndarray no longer fits.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import types

import numpy as np
from scipy import sparse as _sp

from ..exceptions import ProximityError
from ..graph import Graph
from ..utils.sparse import csr_entry_keys, csr_lookup, indices_in_range

__all__ = ["ProximityMeasure", "ProximityMatrix"]


class ProximityMatrix:
    """A computed node-proximity matrix plus the derived quantities of Theorem 3.

    Accepts either a dense ndarray or any scipy sparse matrix; sparse input
    is stored as canonical CSR and all derived quantities are computed
    without densifying.
    """

    def __init__(
        self,
        matrix: np.ndarray | _sp.spmatrix,
        name: str = "proximity",
        owned: bool = False,
    ) -> None:
        """Wrap ``matrix``.

        ``owned=True`` declares that the (dense) array was freshly allocated
        for this wrapper and is not held by any caller — :meth:`freeze` then
        marks it read-only in place instead of defensively copying n×n
        bytes.  Leave ``False`` for arrays of unknown provenance.
        """
        self._name = name
        if _sp.issparse(matrix):
            csr = matrix.tocsr().astype(float)
            if csr.shape[0] != csr.shape[1]:
                raise ProximityError(f"proximity matrix must be square, got shape {csr.shape}")
            csr.sum_duplicates()
            csr.sort_indices()
            if np.any(~np.isfinite(csr.data)):
                raise ProximityError("proximity matrix contains non-finite values")
            if np.any(csr.data < 0):
                raise ProximityError("proximity values must be non-negative")
            csr.eliminate_zeros()
            self._sparse: _sp.csr_matrix | None = csr
            self._dense: np.ndarray | None = None
            self._aliases_input = False  # astype(copy=True) above owns its buffers
            # lookup keys are built lazily on the first pair lookup (the
            # same pattern as Graph._adjacency_keys): they add 8 bytes per
            # stored entry, which analysis-only consumers never need
            self._keys: np.ndarray | None = None
            data = csr.data
            self._min_positive = float(data.min()) if data.size else 0.0
            self._max_value = float(data.max()) if data.size else 0.0
            self._row_sums = np.asarray(csr.sum(axis=1)).ravel()
        else:
            dense = np.asarray(matrix, dtype=float)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ProximityError(f"proximity matrix must be square, got shape {dense.shape}")
            if np.any(~np.isfinite(dense)):
                raise ProximityError("proximity matrix contains non-finite values")
            if np.any(dense < 0):
                raise ProximityError("proximity values must be non-negative")
            self._sparse = None
            self._dense = dense
            # np.asarray returns the input itself for a float64 ndarray and
            # a memory-sharing base-class view for ndarray subclasses
            # (np.matrix) — either way the caller still holds a writable
            # handle, so freeze() must copy unless the buffer was declared
            # ours
            self._aliases_input = (
                dense is matrix or dense.base is not None
            ) and not owned
            self._keys = None
            positive = dense[dense > 0]
            self._min_positive = float(positive.min()) if positive.size else 0.0
            self._max_value = float(dense.max()) if dense.size else 0.0
            self._row_sums = dense.sum(axis=1)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Name of the proximity measure that produced this matrix."""
        return self._name

    @property
    def is_sparse(self) -> bool:
        """``True`` when the backing store is CSR (the scale path)."""
        return self._sparse is not None

    @property
    def matrix(self) -> np.ndarray:
        """A dense ``|V| x |V|`` view of the proximity matrix.

        For the CSR backend this **materialises an n×n ndarray on every
        access** — it is the compatibility fallback for analysis code, not
        something the training path ever touches.
        """
        if self._dense is not None:
            return self._dense
        return self._sparse.toarray()

    @property
    def sparse_matrix(self) -> _sp.csr_matrix:
        """The proximity matrix as canonical CSR (converting if dense-backed)."""
        if self._sparse is not None:
            return self._sparse
        return _sp.csr_matrix(self._dense)

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) proximity entries."""
        if self._sparse is not None:
            return int(self._sparse.nnz)
        return int(np.count_nonzero(self._dense))

    @property
    def num_nodes(self) -> int:
        """Number of nodes the matrix covers."""
        shape = self._sparse.shape if self._sparse is not None else self._dense.shape
        return int(shape[0])

    @property
    def min_positive(self) -> float:
        """``min(P)``: the smallest strictly positive proximity value."""
        return self._min_positive

    @property
    def max_value(self) -> float:
        """``max(P)``: the largest proximity value (0 for an all-zero matrix)."""
        return self._max_value

    @property
    def row_sums(self) -> np.ndarray:
        """``Σ_j p_ij`` for every centre node ``v_i``."""
        return self._row_sums

    def _check_indices(self, *index_arrays: np.ndarray) -> None:
        """Uniform bounds check for both backends.

        The CSR lookup would alias an out-of-range index into another row
        through the ``row*n + col`` key arithmetic, and plain numpy would
        wrap negatives — both silently wrong, so every lookup rejects them.
        """
        if not indices_in_range(self.num_nodes, *index_arrays):
            raise ProximityError(
                f"node index outside [0, {self.num_nodes}) in proximity lookup"
            )

    def pair_value(self, i: int, j: int) -> float:
        """Return ``p_ij``."""
        return float(
            self.pair_values(np.array([int(i)]), np.array([int(j)]))[0]
        )

    def pair_values(self, centers: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Vectorised ``p_ij`` lookup for parallel index arrays."""
        centers = np.asarray(centers, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        self._check_indices(centers, contexts)
        if self._dense is not None:
            return self._dense[centers, contexts]
        if self._keys is None:
            self._keys = csr_entry_keys(self._sparse)
        values, _ = csr_lookup(self._sparse, centers, contexts, keys=self._keys)
        return np.asarray(values, dtype=float)

    def negative_sampling_mass(self, center: int) -> float:
        """Theorem-3 negative-sampling mass ``min(P) / Σ_j p_ij`` for a centre node."""
        center = int(center)
        self._check_indices(np.array([center]))
        row_sum = float(self._row_sums[center])
        if row_sum <= 0:
            return 0.0
        return self._min_positive / row_sum

    def negative_sampling_masses(self, centers: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`negative_sampling_mass` for an array of centres."""
        centers = np.asarray(centers, dtype=np.int64)
        self._check_indices(centers)
        row_sums = self._row_sums[centers]
        with np.errstate(divide="ignore", invalid="ignore"):
            masses = np.where(row_sums > 0, self._min_positive / row_sums, 0.0)
        return masses

    def theoretical_optimal_inner_product(self, i: int, j: int, num_negatives: int) -> float:
        """Eq. (10): the optimal ``v_i · v_j`` = ``log(p_ij / (k · min(P)))``.

        Returns ``-inf`` when ``p_ij = 0`` (the optimum pushes the pair apart
        without bound).
        """
        if num_negatives < 1:
            raise ProximityError(f"num_negatives must be >= 1, got {num_negatives}")
        p_ij = self.pair_value(i, j)
        if p_ij <= 0 or self._min_positive <= 0:
            return float("-inf")
        return float(np.log(p_ij / (num_negatives * self._min_positive)))

    def theoretical_optimal_inner_products(
        self, centers: np.ndarray, contexts: np.ndarray, num_negatives: int
    ) -> np.ndarray:
        """Vectorised Eq. (10) optima for parallel index arrays."""
        if num_negatives < 1:
            raise ProximityError(f"num_negatives must be >= 1, got {num_negatives}")
        values = self.pair_values(centers, contexts)
        out = np.full(values.shape, -np.inf)
        if self._min_positive > 0:
            positive = values > 0
            out[positive] = np.log(
                values[positive] / (num_negatives * self._min_positive)
            )
        return out

    def freeze(self) -> "ProximityMatrix":
        """Mark the backing buffers read-only and return ``self``.

        The proximity cache freezes every stored matrix: cache hits share
        one object, so an in-place edit by one consumer (``prox.matrix /=
        2`` on a dense backend, or scaling ``sparse_matrix.data``) would
        otherwise silently corrupt every later hit.  Frozen matrices raise
        on in-place writes instead; derived copies (``normalized()``,
        ``.toarray()`` views of the CSR backend) stay writable.
        """
        if self._sparse is not None:
            self._sparse.data.flags.writeable = False
            self._sparse.indices.flags.writeable = False
            self._sparse.indptr.flags.writeable = False
        else:
            if self._aliases_input and self._dense.flags.writeable:
                # the buffer is the caller's own array — freeze a copy,
                # never the array they handed in
                self._dense = self._dense.copy()
                self._aliases_input = False
            self._dense.flags.writeable = False
        self._row_sums.flags.writeable = False
        return self

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the backing buffers."""
        if self._sparse is not None:
            total = (
                self._sparse.data.nbytes
                + self._sparse.indices.nbytes
                + self._sparse.indptr.nbytes
                + (self._keys.nbytes if self._keys is not None else 0)
            )
        else:
            total = self._dense.nbytes
        return int(total + self._row_sums.nbytes)

    def normalized(self) -> "ProximityMatrix":
        """Return a copy scaled so the maximum entry is 1 (zero matrix unchanged)."""
        peak = self._max_value
        if self._sparse is not None:
            scaled = self._sparse.copy()
            if peak > 0:
                scaled.data = scaled.data / peak
                return ProximityMatrix(scaled, name=f"{self._name}-normalized")
            return ProximityMatrix(scaled, name=self._name)
        if peak <= 0:
            return ProximityMatrix(self._dense.copy(), name=self._name, owned=True)
        return ProximityMatrix(
            self._dense / peak, name=f"{self._name}-normalized", owned=True
        )

    def __repr__(self) -> str:
        backend = "csr" if self.is_sparse else "dense"
        return (
            f"ProximityMatrix(name={self._name!r}, num_nodes={self.num_nodes}, "
            f"backend={backend!r}, min_positive={self._min_positive:.3g})"
        )


def _param_token(value: object) -> str:
    """Stable cache-key token for one measure parameter.

    ``repr`` truncates large numpy arrays (``[0. 1. ... 0.]``), which would
    let differently-configured custom measures collide on one fingerprint —
    arrays are therefore hashed by content instead, recursing through
    containers so a list- or dict-wrapped array gets the same treatment.
    """
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:16]
        return f"ndarray(sha256={digest},shape={value.shape},dtype={value.dtype})"
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        inner = ",".join(_param_token(item) for item in items)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_param_token(k)}:{_param_token(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"dict{{{inner}}}"
    if isinstance(value, functools.partial):
        return (
            f"partial(func={_param_token(value.func)},"
            f"args={_param_token(tuple(value.args))},"
            f"kwargs={_param_token(dict(value.keywords))})"
        )
    if callable(value):
        # default reprs embed a memory address — unstable across processes
        # and reusable within one; identify callables by qualified name,
        # bytecode hash, closure cells, and argument defaults (best-effort
        # content key — everything that changes the callable's behaviour)
        token = (
            f"{getattr(value, '__module__', '?')}."
            f"{getattr(value, '__qualname__', type(value).__name__)}"
        )
        code = getattr(value, "__code__", None)
        if code is not None:
            digest = hashlib.sha256()
            _hash_code_object(code, digest)
            token += f",code={digest.hexdigest()[:12]}"
        closure = getattr(value, "__closure__", None)
        if closure:
            cells = []
            for cell in closure:
                try:
                    cells.append(_param_token(cell.cell_contents))
                except ValueError:  # empty cell
                    cells.append("<empty>")
            token += f",closure=[{','.join(cells)}]"
        defaults = getattr(value, "__defaults__", None)
        if defaults:
            token += f",defaults={_param_token(tuple(defaults))}"
        return f"callable({token})"
    return repr(value)


def _hash_code_object(code, digest) -> None:
    """Feed a code object's content (not its ``repr``) into a hash.

    ``repr`` of a constant tuple embeds memory addresses for nested code
    objects (lambdas, comprehensions), which would make the token differ
    per process — recurse into them instead.
    """
    digest.update(code.co_code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _hash_code_object(const, digest)
        else:
            digest.update(repr(const).encode())


def _strip_diagonal(
    matrix: _sp.spmatrix, rows: np.ndarray | None = None
) -> _sp.csr_matrix:
    """Drop the diagonal of a sparse matrix without densifying (no warnings).

    With ``rows`` the matrix is that row block of a square matrix, whose
    diagonal entries are ``(k, rows[k])``.
    """
    coo = matrix.tocoo()
    keep = coo.row != coo.col if rows is None else rows[coo.row] != coo.col
    return _sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
    )


def _row_block(matrix: _sp.csr_matrix, rows: np.ndarray | None) -> _sp.csr_matrix:
    """``matrix`` itself, or its block of ``rows`` when rows are given."""
    return matrix if rows is None else matrix[rows]


class ProximityMeasure(abc.ABC):
    """Strategy interface: compute a :class:`ProximityMatrix` for a graph.

    Subclasses implement :meth:`compute_matrix` (the dense reference) and,
    when their measure has genuinely sparse support, override
    :meth:`compute_sparse_matrix` and set :attr:`supports_sparse` — the two
    paths must agree to 1e-10, the discipline ``tests/test_proximity_sparse``
    pins for every registered measure.

    A *local* measure — one where an edge flip on ``(u, v)`` can only change
    rows within a bounded graph distance of ``u`` and ``v`` — also overrides
    :meth:`locality_radius` (that distance), :meth:`reused_row_scale` when
    the unchanged rows still move by a global factor, and makes its
    :meth:`compute_sparse_matrix` honour ``rows`` by running the same kernel
    on that row block.  The streaming planner then recomputes only the rows
    a delta can reach (:meth:`compute_rows`) and reuses the rest.  A
    subclass that changes an inherited local formula must revisit all
    three; the defaults declare the measure global (every delta forces a
    full recompute).
    """

    #: registry key; subclasses override.
    name: str = "proximity"
    #: whether :meth:`compute_sparse_matrix` avoids dense n×n intermediates;
    #: measures that are dense by nature (e.g. preferential attachment) leave
    #: this ``False`` and ``compute`` defaults to the dense backend for them.
    supports_sparse: bool = False
    #: backend picked when ``compute(sparse=None)``: ``None`` follows
    #: :attr:`supports_sparse`; measures whose sparse *result* is
    #: structurally full (Katz/PPR resolvents on connected graphs store
    #: ~n² entries in CSR, costing more than the dense array) set this to
    #: ``False`` so callers must opt in to their CSR path explicitly.
    prefers_sparse: bool | None = None

    @abc.abstractmethod
    def compute_matrix(self, graph: Graph) -> np.ndarray:
        """Return the raw dense proximity matrix for ``graph``."""

    def compute_sparse_matrix(
        self, graph: Graph, rows: np.ndarray | None = None
    ) -> _sp.csr_matrix:
        """Return the raw proximity matrix in CSR form.

        With ``rows`` (a sorted node-id array) return only those rows, shape
        ``(len(rows), n)``, bit-identical to the same rows of the full
        matrix.  The default densifies through :meth:`compute_matrix` —
        correct for every measure, scalable only for those that override it.
        """
        matrix = _sp.csr_matrix(np.asarray(self.compute_matrix(graph), dtype=float))
        return _row_block(matrix, rows)

    def locality_radius(self) -> int | None:
        """Graph distance from an edge flip beyond which no row changes.

        ``None`` (the default) declares the measure global: every row may
        couple to every edge, so a delta forces a full recompute.
        """
        return None

    def reused_row_scale(self, old: Graph, new: Graph) -> float:
        """Factor by which rows beyond :meth:`locality_radius` change from
        ``old`` to ``new`` (a global normaliser such as a peak or a volume).

        ``1.0`` (the default) reuses them verbatim; a non-finite or
        non-positive value forces a full recompute.
        """
        return 1.0

    def compute_rows(self, graph: Graph, rows: np.ndarray) -> _sp.csr_matrix:
        """Rows ``rows`` (sorted node ids) of ``compute(graph, sparse=True)``.

        Returns a ``(len(rows), n)`` CSR block with the diagonal zeroed, as
        :meth:`compute` zeroes it; only local measures support it.
        """
        if self.locality_radius() is None:
            raise ProximityError(f"{type(self).__name__} is global: it has no row kernel")
        matrix = self.compute_sparse_matrix(graph, rows).tocsr()
        expected = (rows.shape[0], graph.num_nodes)
        if matrix.shape != expected:
            raise ProximityError(
                f"{type(self).__name__}.compute_sparse_matrix returned shape "
                f"{matrix.shape} for {rows.shape[0]} rows, expected {expected}"
            )
        return _strip_diagonal(matrix, rows)

    def resolve_backend(self, sparse: bool | None = None) -> bool:
        """Resolve a ``sparse`` request to the backend :meth:`compute` will use.

        The single source of truth for backend selection — the proximity
        cache keys entries by this, so it must always match what
        :meth:`compute` actually produces.
        """
        if sparse is not None:
            return bool(sparse)
        if self.prefers_sparse is not None:
            return self.prefers_sparse
        return self.supports_sparse

    def compute(self, graph: Graph, sparse: bool | None = None) -> ProximityMatrix:
        """Compute and wrap the proximity matrix, zeroing the diagonal.

        The diagonal is irrelevant to skip-gram training (a node is never its
        own context) and zeroing it keeps ``min(P)`` meaningful.

        Parameters
        ----------
        graph:
            The graph to measure.
        sparse:
            ``True`` forces the CSR backend, ``False`` the dense one,
            ``None`` (default) picks CSR exactly when the measure declares
            :attr:`supports_sparse`.
        """
        use_sparse = self.resolve_backend(sparse)
        expected = (graph.num_nodes, graph.num_nodes)
        if use_sparse:
            matrix = self.compute_sparse_matrix(graph).tocsr()
            if matrix.shape != expected:
                raise ProximityError(
                    f"{type(self).__name__}.compute_sparse_matrix returned shape "
                    f"{matrix.shape}, expected {expected}"
                )
            return ProximityMatrix(_strip_diagonal(matrix), name=self.name)
        matrix = np.asarray(self.compute_matrix(graph), dtype=float)
        if matrix.shape != expected:
            raise ProximityError(
                f"{type(self).__name__}.compute_matrix returned shape {matrix.shape}, "
                f"expected {expected}"
            )
        np.fill_diagonal(matrix, 0.0)
        # compute_matrix allocated this array for us: freeze() need not copy
        return ProximityMatrix(matrix, name=self.name, owned=True)

    def fingerprint(self) -> str:
        """A stable string identifying this measure configuration.

        Used as part of proximity-cache keys: two measure instances with the
        same class and the same public scalar parameters share cached
        matrices.
        """
        params = [
            (key, value)
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        ]
        rendered = ",".join(f"{k}={_param_token(v)}" for k, v in params)
        # module + qualname + registry name: two same-named classes from
        # different modules (or a redefined notebook class) must not share
        # cache entries
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}[{self.name}]({rendered})"

    # Convenience for subclasses ------------------------------------------------
    @staticmethod
    def _dense_adjacency(graph: Graph) -> np.ndarray:
        adjacency = graph.adjacency_matrix()
        if _sp.issparse(adjacency):
            return adjacency.toarray()
        return np.asarray(adjacency)

    @staticmethod
    def _sparse_adjacency(graph: Graph) -> _sp.csr_matrix:
        adjacency = graph.adjacency_matrix()
        if _sp.issparse(adjacency):
            return adjacency.tocsr()
        return _sp.csr_matrix(np.asarray(adjacency, dtype=float))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
