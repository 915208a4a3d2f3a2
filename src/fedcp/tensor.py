"""Sparse 3-mode tensors in coordinate form, CP factor algebra, and fit metrics.

A factor matrix is a plain float64 ndarray of shape (rows, R). A rank-R
factorization of an I x J x K tensor is a triple (A, B, C) with shapes
(I, R), (J, R), (K, R); component r is the outer product of the three
r-th columns.

``model_values`` is the one place that picks how model values are
computed: the compiled ``model_values`` in ``_sgd.c`` when
``_native.LIBRARY`` holds the compiled library, else the einsum of
``reconstruct_values``; the two agree bit for bit. The fit metric ``rmse``
and ``data.generate_synthetic`` take their values from it.

``rmse`` scores a list of shards, each with its own factor triple; a
centralized run is the one-shard case. A federation round passes its
sites' own sums of squared residuals to ``root_mean_square``, the step
that ends ``rmse``.
"""

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DimensionError


def as_factor(data) -> np.ndarray:
    """Coerce to a 2-D float64 factor matrix, rejecting non-finite entries."""
    m = np.array(data, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"factor matrix must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("factor matrix contains non-finite entries")
    return m


def first_repeat(lin) -> int:
    """The index of the first value of ``lin`` that equals an earlier one;
    ``lin`` must hold such a value."""
    _, first = np.unique(lin, return_index=True)
    return int(np.setdiff1d(np.arange(lin.size), first)[0])


@dataclass(frozen=True)
class SparseTensorCOO:
    """Observed 3-mode tensor stored as (i, j, k, value) records.

    Only non-zero values are stored (zeros are implicit). Indices are
    0-based, strictly inside ``dims``, and coordinates are unique.
    """

    dims: tuple[int, int, int]
    coords: np.ndarray  # (nnz, 3) int64
    values: np.ndarray  # (nnz,) float64

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise DimensionError(f"dims must be three positive integers, got {self.dims}")
        coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 3)
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if coords.shape[0] != values.shape[0]:
            raise DimensionError("coords and values disagree on entry count")
        if coords.size:
            if coords.min() < 0 or np.any(coords >= np.asarray(dims)):
                raise ValueError("tensor entry index out of range")
            lin = np.ravel_multi_index((coords[:, 0], coords[:, 1], coords[:, 2]), dims)
            # strictly increasing (every generated file and its shards) has no
            # repeat; any other order takes the sort
            if not np.all(lin[1:] > lin[:-1]) and np.unique(lin).size != lin.size:
                n = first_repeat(lin)
                raise ValueError(f"duplicate tensor coordinate {tuple(coords[n].tolist())}")
        if not np.all(np.isfinite(values)):
            raise ValueError("tensor values must be finite")
        if np.any(values == 0.0):
            raise ValueError("explicit zero values are not stored; drop them")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)

    @classmethod
    def _unchecked(cls, dims, coords, values) -> "SparseTensorCOO":
        """A tensor that skips ``__post_init__``, for arrays valid by
        construction: ``dims`` a tuple of three ints, ``coords`` (nnz, 3)
        int64 inside them with no repeat, ``values`` (nnz,) finite non-zero
        float64. Its two callers build from a validated tensor:
        ``data.partition_rows`` cuts shards and ``data.permute_rows``
        relabels rows."""
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "dims", dims)
        object.__setattr__(tensor, "coords", coords)
        object.__setattr__(tensor, "values", values)
        return tensor

    @property
    def nnz(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FactorizationResult:
    """A factor triple with the derived per-component weights."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_factor(self.A))
        object.__setattr__(self, "B", as_factor(self.B))
        object.__setattr__(self, "C", as_factor(self.C))
        if not (self.A.shape[1] == self.B.shape[1] == self.C.shape[1]):
            raise DimensionError("factor matrices must share one rank")

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Component weights: product of the three column norms."""
        return factor_weights(self.A, self.B, self.C)


def reconstruct_values(A, B, C, coords) -> np.ndarray:
    """Model values at every (i, j, k) row of ``coords``, vectorized. The
    reference for the compiled ``model_values``."""
    return np.einsum(
        "nr,nr,nr->n", A[coords[:, 0]], B[coords[:, 1]], C[coords[:, 2]]
    )


def _model_values(A, B, C, coords) -> np.ndarray:
    """``reconstruct_values`` in C. The caller has checked that the factors
    are 2-D, share one rank and match the shard dims, so every index in
    ``coords`` lies inside them."""
    A, B, C = (np.ascontiguousarray(m, dtype=np.float64) for m in (A, B, C))
    coords = np.ascontiguousarray(coords, dtype=np.int64)
    out = np.empty(coords.shape[0])
    _native.LIBRARY.model_values(
        out.shape[0], coords.ctypes.data, A.ctypes.data, B.ctypes.data, C.ctypes.data,
        A.shape[1], out.ctypes.data,
    )
    return out


def model_values(A, B, C, coords) -> np.ndarray:
    """Model values at every (i, j, k) row of ``coords``: the compiled
    kernel when the library loaded, else ``reconstruct_values``, with the
    same bits. The caller has checked that the factors are 2-D, share one
    rank and have a row for every index in ``coords``."""
    if _native.LIBRARY is None:
        return reconstruct_values(A, B, C, coords)
    return _model_values(A, B, C, coords)


def rmse(shards, factors) -> float:
    """Root mean square error over the union of the shards' stored entries.

    Shard t is scored with ``factors[t]`` (anything with 2-D ``A``, ``B``,
    ``C`` of one rank whose row counts match the shard's dims); the
    per-shard sums of squared residuals are added in shard order. Empty
    shards are allowed, but at least one shard must hold an entry.
    """
    if len(shards) != len(factors):
        raise DimensionError(f"{len(shards)} shards but {len(factors)} factor triples")
    sq_sums = []
    for t, (shard, f) in enumerate(zip(shards, factors)):
        shapes = [np.shape(m) for m in (f.A, f.B, f.C)]
        if any(len(s) != 2 for s in shapes) or tuple(s[0] for s in shapes) != shard.dims:
            raise DimensionError(f"factor rows of shard {t} do not match its dims {shard.dims}")
        ranks = tuple(s[1] for s in shapes)
        if len(set(ranks)) != 1:
            raise DimensionError(f"factor ranks of shard {t} differ: A, B, C have {ranks}")
        resid = model_values(f.A, f.B, f.C, shard.coords) - shard.values
        sq_sums.append(float(np.sum(resid * resid)))
    return root_mean_square(sq_sums, [shard.nnz for shard in shards])


def root_mean_square(sq_sums, counts) -> float:
    """sqrt of the summed squared residuals over the summed entry counts,
    each list added in shard order."""
    sq_sum = 0.0
    for s in sq_sums:
        sq_sum += s
    count = sum(counts)
    if count == 0:
        raise ValueError("rmse is undefined when no shard holds an entry")
    return float(np.sqrt(sq_sum / count))


def factor_weights(A, B, C) -> np.ndarray:
    """Per-component weight: product of the column norms of the three modes."""
    A, B, C = (np.asarray(m, dtype=np.float64) for m in (A, B, C))
    if not (A.shape[1] == B.shape[1] == C.shape[1]):
        raise DimensionError("factor matrices must share one rank")
    return (
        np.linalg.norm(A, axis=0)
        * np.linalg.norm(B, axis=0)
        * np.linalg.norm(C, axis=0)
    )


def zero_columns(M) -> np.ndarray:
    """Mask of the columns that hold no non-zero entry (-0.0 counts as zero).

    Judged by the entries, not by a norm: the squares of a column of values
    below about 1e-162 underflow to a norm of 0.
    """
    return ~np.any(np.asarray(M, dtype=np.float64), axis=0)


def zero_column_count(A) -> int:
    """Number of exactly-zero columns (components shrunk away entirely)."""
    return int(np.count_nonzero(zero_columns(A)))


@dataclass(frozen=True)
class FmsReport:
    """Factor match score plus the per-component evidence behind it.

    ``permutation[r]`` is the column of Y matched to column r of X;
    ``cosine_products`` are the per-pair products of mode cosines;
    ``weights_x``/``weights_y`` are the matched component weights.
    """

    score: float
    permutation: np.ndarray
    cosine_products: np.ndarray
    weights_x: np.ndarray
    weights_y: np.ndarray


def _cosine_matrix(mx, my) -> np.ndarray:
    # zero-norm columns get cosine 0 rather than NaN
    nx = np.linalg.norm(mx, axis=0)
    ny = np.linalg.norm(my, axis=0)
    gram = mx.T @ my
    denom = np.outer(nx, ny)
    return np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0)


def fms_report(x: FactorizationResult, y: FactorizationResult) -> FmsReport:
    """Match components greedily, then score the matched pairs.

    Per matched pair the score is the product of the three mode cosines,
    discounted by the relative gap of the component weights; the overall
    score is the mean over components and lies in [-1, 1]. Matching makes
    the score invariant to a simultaneous column permutation of Y.
    """
    if x.rank != y.rank:
        raise DimensionError(f"rank mismatch: {x.rank} vs {y.rank}")
    for name, mx, my in (("A", x.A, y.A), ("B", x.B, y.B), ("C", x.C, y.C)):
        if mx.shape[0] != my.shape[0]:
            raise DimensionError(f"mode {name} row counts differ")
    r = x.rank
    products = (
        _cosine_matrix(x.A, y.A)
        * _cosine_matrix(x.B, y.B)
        * _cosine_matrix(x.C, y.C)
    )
    # greedy: best remaining (row, column) pair first, each used once
    work = products.copy()
    permutation = np.full(r, -1, dtype=np.int64)
    for _ in range(r):
        flat = int(np.argmax(work))
        row, col = divmod(flat, r)
        permutation[row] = col
        work[row, :] = -np.inf
        work[:, col] = -np.inf

    xi = x.weights
    xi_bar = y.weights[permutation]
    cos = products[np.arange(r), permutation]
    biggest = np.maximum(xi, xi_bar)
    gap = np.divide(
        np.abs(xi - xi_bar), biggest, out=np.zeros_like(biggest), where=biggest > 0
    )
    column_scores = (1.0 - gap) * cos
    return FmsReport(
        score=float(column_scores.mean()),
        permutation=permutation,
        cosine_products=cos,
        weights_x=xi,
        weights_y=xi_bar,
    )


def fms(x: FactorizationResult, y: FactorizationResult) -> float:
    """Factor match score in [-1, 1]; 1 means identical components."""
    return fms_report(x, y).score
