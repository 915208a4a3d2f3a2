"""One site's round of local optimization.

The solver cycles through the shard's non-zeros in a shuffled order,
updating one row of each factor per observation, then applies a grouped
soft-threshold to the patient factor so that weak components are zeroed
column by column. Feature-factor rows feel an elastic pull toward the
server's broadcast anchors. ``entry_gradients`` computes an observation's
clipped row gradients, and the Python pass applies them entry by entry.
Every gradient goes through the clip and every pass through the prox
step: ``clip = math.inf`` and a zero threshold are values of those
operators that change no bit, so neither selects code.

A round of tau passes, with the finiteness sweep and the prox step after
each and the sums for the round's RMSE and convergence check at its end,
is one call of ``site_round`` in ``_sgd.c`` when ``_native.LIBRARY`` holds
the compiled library. Else it runs in Python: the pass loop, numpy's
sweep, ``prox_l21``, ``reconstruct_values`` and ``change_sums``, which stay
as the reference the compiled round is tested against. The two agree bit
for bit: the Python loop works in plain floats and sums every dot product
strictly left to right from the first product, the C file keeps numpy's
summation order in its norms and sums, and it is built without
floating-point contraction.

Every site owns three private random streams derived from its seed:
stream 0 initializes factors, stream 1 drives shuffling, stream 2 is
reserved for upload noise. Two sites given equal shards and seeds
therefore produce identical trajectories.
"""

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .errors import DimensionError, NumericOverflowError
from .tensor import SparseTensorCOO, reconstruct_values

INIT_STREAM = 0
SHUFFLE_STREAM = 1
NOISE_STREAM = 2


def site_stream(seed: int, which: int) -> np.random.Generator:
    """The site-private generator for one of the three stream roles."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(which,)))


def derive_site_seed(master_seed: int, site_id: int) -> int:
    """Per-site 64-bit seed derived from the experiment seed."""
    words = np.random.SeedSequence(master_seed, spawn_key=(0, site_id)).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


@dataclass
class SolverParams:
    """Step size, penalties, pass count, and the per-entry gradient bound.

    ``clip`` bounds the 2-norm of each entry's residual gradient; it doubles
    as the Lipschitz value fed to the sensitivity formula. ``math.inf``
    disables clipping (and with it any sensitivity guarantee).
    """

    eta: float = 1e-2
    gamma: float = 5.0
    mu: float = 0.5
    tau: int = 1
    clip: float = 1.0

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be non-negative and finite")
        if not (math.isfinite(self.tau) and int(self.tau) == self.tau and self.tau >= 1):
            raise ValueError("tau must be an integer >= 1")
        self.tau = int(self.tau)
        if not self.clip > 0:
            raise ValueError("clip must be positive")


@dataclass
class SiteState:
    """One site's shard, factor triple, id, and private random streams.
    Each assignment to ``A``, ``B`` or ``C`` stores a writeable C-contiguous
    float64 matrix, copying only a value that is not one already."""

    tensor: SparseTensorCOO
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rng_seed: int
    site_id: int
    shuffle_rng: np.random.Generator = field(init=False, repr=False)
    noise_rng: np.random.Generator = field(init=False, repr=False)

    def __setattr__(self, name, value):
        if name in ("A", "B", "C"):
            value = np.require(value, np.float64, ("C", "W", "A"))
        super().__setattr__(name, value)

    def __post_init__(self):
        i_dim, j_dim, k_dim = self.tensor.dims
        if self.A.shape[0] != i_dim or self.B.shape[0] != j_dim or self.C.shape[0] != k_dim:
            raise DimensionError("factor row counts do not match the shard dims")
        if not (self.A.shape[1] == self.B.shape[1] == self.C.shape[1]):
            raise DimensionError("factor matrices must share one rank")
        self.shuffle_rng = site_stream(self.rng_seed, SHUFFLE_STREAM)
        self.noise_rng = site_stream(self.rng_seed, NOISE_STREAM)


def init_site_state(tensor: SparseTensorCOO, rank: int, seed: int, site_id: int) -> SiteState:
    """Fresh site with factors drawn i.i.d. uniform [0, 1) from stream 0."""
    rng = site_stream(seed, INIT_STREAM)
    i_dim, j_dim, k_dim = tensor.dims
    a = rng.random((i_dim, rank))
    b = rng.random((j_dim, rank))
    c = rng.random((k_dim, rank))
    return SiteState(tensor=tensor, A=a, B=b, C=c, rng_seed=seed, site_id=site_id)


def _dot(x, y) -> float:
    """x . y summed left to right from the first product, as ``_sgd.c`` does;
    ``sum`` may reorder or compensate."""
    products = map(operator.mul, x, y)
    total = next(products)
    for p in products:
        total += p
    return total


def _clip(g: list, clip: float) -> tuple:
    """(g scaled to 2-norm clip, 1) when its norm exceeds clip, else (g, 0);
    an infinite clip, or a NaN norm, keeps g."""
    norm = math.sqrt(_dot(g, g))
    if norm > clip:
        scale = clip / norm
        return [v * scale for v in g], 1
    return g, 0


def entry_gradients(a, b, c, value, b_anchor, c_anchor, gamma, clip):
    """Row gradients at one observation, all taken at the current rows, as
    lists of floats; the rows are sequences of floats of one rank >= 1.

    Only the residual terms are clipped, each to 2-norm <= clip (an infinite
    clip disables it); the quadratic anchor pull is added afterwards,
    matching what the sensitivity bound covers. Dot products are summed
    left to right. Raises NumericOverflowError when the residual is not
    finite.
    """
    return _clipped_gradients(a, b, c, value, b_anchor, c_anchor, gamma, clip)[:3]


def _clipped_gradients(a, b, c, value, b_anchor, c_anchor, gamma, clip):
    """``entry_gradients`` and the number of residual gradients the clip scaled."""
    bc = list(map(operator.mul, b, c))
    resid = _dot(a, bc) - value
    if not math.isfinite(resid):
        raise NumericOverflowError("residual became non-finite")
    ga = [resid * v for v in bc]
    gb = [resid * (x * z) for x, z in zip(a, c)]
    gc = [resid * (x * y) for x, y in zip(a, b)]
    ga, na = _clip(ga, clip)
    gb, nb = _clip(gb, clip)
    gc, nc = _clip(gc, clip)
    gb = [g + gamma * (y - h) for g, y, h in zip(gb, b, b_anchor)]
    gc = [g + gamma * (z - h) for g, z, h in zip(gc, c, c_anchor)]
    return ga, gb, gc, na + nb + nc


def prox_l21(A: np.ndarray, threshold: float) -> np.ndarray:
    """Columnwise group soft-threshold, as a new array.

    Each column is scaled by (1 - threshold/norm)+, so a column whose norm
    is at or below a positive threshold comes back exactly zero. Zero
    threshold is the identity: threshold/norm is 0, or NaN on a column
    whose norm is 0 (all zeros, or every square underflows), and a NaN
    ratio scales by 1.
    """
    if not np.isfinite(threshold) or threshold < 0:
        raise ValueError("threshold must be finite and non-negative")
    A = np.asarray(A, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = threshold / np.linalg.norm(A, axis=0)
    scale = np.where(ratio < 1.0, 1.0 - ratio, np.where(ratio >= 1.0, 0.0, 1.0))
    return A * scale[None, :]


# constant text: the default filter then shows it once, not once per site and round
_STEP_SIZE_WARNING = (
    "learning rate exceeds the 2/beta stability bound of an entry's steps on its A, B "
    "and C rows; lower the config key 'eta' (a larger 'rank' or 'gamma' raises beta)"
)


@dataclass(frozen=True)
class RoundSums:
    """A site's round, summed: ``sse`` over the shard at the final factors,
    as ``tensor.rmse`` sums it, ``changes``, the ``change_sums`` of B and
    then C from the start of the round to its end, and ``clipped``, the
    number of residual gradients the clip scaled in the round's tau passes
    (up to three per entry and pass; 0 when clip is infinite)."""

    sse: float
    changes: tuple
    clipped: int


def change_sums(p, c) -> tuple:
    """(sum p**2, sum (c - p)**2) by np.add.reduce, which never uses threaded BLAS."""
    return float(np.add.reduce(p ** 2, axis=None)), float(np.add.reduce((c - p) ** 2, axis=None))


def run_local_epoch(state: SiteState, anchors, params: SolverParams) -> RoundSums:
    """tau shuffled passes over the shard, each followed by a finiteness
    sweep and the prox step with threshold eta * mu; returns the RoundSums.

    ``anchors`` is the broadcast (B_hat, C_hat) pair; it is read, never
    written. The state's factors and shuffle stream advance in place. All
    tau permutations are drawn before the first pass, so a round that
    raises has drawn every one. Each entry's step is taken at the
    pre-update rows. A non-finite residual raises NumericOverflowError
    naming the entry, with the entries before it in the pass applied; the
    sweep names any other non-finite row.
    """
    b_hat, c_hat = anchors
    i_dim, j_dim, k_dim = state.tensor.dims
    rank = state.A.shape[-1]
    if rank < 1 or (state.A.shape, state.B.shape, state.C.shape) != (
        (i_dim, rank), (j_dim, rank), (k_dim, rank)
    ):
        raise DimensionError("site factors must match the shard dims and share one rank >= 1")
    if b_hat.shape != state.B.shape or c_hat.shape != state.C.shape:
        raise DimensionError("anchor shapes do not match the site's feature factors")
    threshold = params.eta * params.mu
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite and non-negative")
    beta = beta_lipschitz(state.A, state.B, state.C, params.gamma)
    if beta > 0 and params.eta > 2.0 / beta:
        warnings.warn(_STEP_SIZE_WARNING, RuntimeWarning, stacklevel=2)

    coords = np.ascontiguousarray(state.tensor.coords, dtype=np.int64)
    values = np.ascontiguousarray(state.tensor.values, dtype=np.float64)
    # tau calls of permutation(nnz), in place: the same draws from the stream
    orders = np.empty((params.tau, state.tensor.nnz), dtype=np.int64)
    orders[:] = np.arange(state.tensor.nnz)
    for order in orders:
        state.shuffle_rng.shuffle(order)
    if _native.LIBRARY is not None:
        return _compiled_round(state, orders, coords, values, b_hat, c_hat, params, threshold)

    start = (state.B.copy(), state.C.copy())
    clipped = 0
    for order in orders:
        factors = (state.A, state.B, state.C)
        stop, count = _python_pass(order, coords, values, *factors, b_hat, c_hat, params)
        clipped += count
        if stop >= 0:
            raise _residual_error(coords[order[stop]])
        for name, m in zip("ABC", factors):
            if not np.all(np.isfinite(m)):
                bad = int(np.where(~np.isfinite(m).all(axis=1))[0][0])
                raise NumericOverflowError(f"{name} row {bad} became non-finite")
        state.A = prox_l21(state.A, threshold)
    resid = reconstruct_values(state.A, state.B, state.C, coords) - values
    changes = tuple(map(change_sums, start, (state.B, state.C)))
    return RoundSums(float(np.sum(resid * resid)), changes, clipped)


def _residual_error(ijk) -> NumericOverflowError:
    return NumericOverflowError("residual became non-finite at entry ({}, {}, {})".format(*ijk))


def _python_pass(order, coords, values, A, B, C, b_hat, c_hat, params) -> tuple:
    """One pass in entry order: (-1, or the position in ``order`` of the
    entry whose residual is not finite; the number of residual gradients
    the clip scaled). The reference for ``sgd_pass``.

    The rows are updated as lists of floats and written back into A, B and
    C when the pass ends or stops, so the entries before a stop stay
    applied."""
    row_i, row_j, row_k = coords.T.tolist()
    vals = values.tolist()
    rows_a, rows_b, rows_c = A.tolist(), B.tolist(), C.tolist()
    anchor_b, anchor_c = b_hat.tolist(), c_hat.tolist()
    eta, gamma, clip = params.eta, params.gamma, params.clip
    stop, clipped = -1, 0
    for p, n in enumerate(order.tolist()):
        i = row_i[n]
        j = row_j[n]
        k = row_k[n]
        a = rows_a[i]
        b = rows_b[j]
        c = rows_c[k]
        try:
            ga, gb, gc, count = _clipped_gradients(
                a, b, c, vals[n], anchor_b[j], anchor_c[k], gamma, clip
            )
        except NumericOverflowError:
            stop = p
            break
        clipped += count
        rows_a[i] = [x - eta * g for x, g in zip(a, ga)]
        rows_b[j] = [y - eta * g for y, g in zip(b, gb)]
        rows_c[k] = [z - eta * g for z, g in zip(c, gc)]
    A[...] = rows_a
    B[...] = rows_b
    C[...] = rows_c
    return stop, clipped


_NO_MEMORY, _RESIDUAL, _ROW = 1, 2, 3  # site_round's return codes, 0 when it ran


def _compiled_round(state, orders, coords, values, b_hat, c_hat, params, threshold):
    """The Python round of ``run_local_epoch`` in one call of ``site_round``.
    The caller has checked that the site's factors match the shard dims, so
    every index in ``coords`` lies inside them."""
    b_hat = np.ascontiguousarray(b_hat, dtype=np.float64)
    c_hat = np.ascontiguousarray(c_hat, dtype=np.float64)
    sums = np.empty(5)
    tally = np.empty(2, dtype=np.int64)  # the clip count, and where a round failed
    status = _native.LIBRARY.site_round(
        *orders.shape, orders.ctypes.data, coords.ctypes.data, values.ctypes.data,
        *state.tensor.dims, state.A.ctypes.data, state.B.ctypes.data, state.C.ctypes.data,
        b_hat.ctypes.data, c_hat.ctypes.data, state.A.shape[1], params.eta, params.gamma,
        params.clip, threshold, sums.ctypes.data, tally.ctypes.data,
    )
    if status == _NO_MEMORY:
        raise MemoryError("no memory for the site's round")
    if status == _RESIDUAL:
        raise _residual_error(coords[orders.flat[tally[1]]])
    if status >= _ROW:
        raise NumericOverflowError(f"{'ABC'[status - _ROW]} row {tally[1]} became non-finite")
    sse, *changes = sums.tolist()
    return RoundSums(sse, (tuple(changes[:2]), tuple(changes[2:])), int(tally[0]))


def beta_lipschitz(A, B, C, gamma: float) -> float:
    """Upper bound on the curvature of any one entry's step.

    For an entry's rows a, b, c the step on a has curvature ||b o c||^2,
    the step on b ||a o c||^2 + gamma and the step on c ||a o b||^2 + gamma
    (o the elementwise product). For factors X and Y every pair of rows
    has ||x o y||^2 <= min(n_X e_Y, e_X n_Y), with n a factor's largest
    squared row norm and e its largest squared entry; beta is the largest
    of the three pair bounds. Step sizes above 2/beta lose the descent
    guarantee of an entry's step. Only maxima and einsum row sums, no
    BLAS, so the thread count cannot change it. Factors whose squares
    could overflow, or that hold NaN, give inf.
    """
    A, B, C = (np.asarray(m, dtype=np.float64) for m in (A, B, C))
    rank = A.shape[1]
    if not (rank == B.shape[1] == C.shape[1]) or 0 in (rank, len(A), len(B), len(C)):
        raise DimensionError("factor matrices must be non-empty and share one rank")
    # |A|, |B| and |C| in one array, so each factor's maximum below is one
    # reduceat; abs in place, as a second large temporary costs more than the bound
    rows = np.concatenate((A, B, C))
    np.abs(rows, out=rows)
    starts = np.array([0, len(A), len(A) + len(B)])
    tops = np.maximum.reduceat(rows.ravel(), starts * rank).tolist()
    # a Python float product overflows to inf without a warning; NaN < inf is False
    if not all(t * t * rank < math.inf for t in tops):
        return math.inf
    na, nb, nc = np.maximum.reduceat(np.einsum("ij,ij->i", rows, rows), starts).tolist()
    ea, eb, ec = (t * t for t in tops)
    return max(min(nb * ec, eb * nc), min(na * ec, ea * nc) + gamma, min(na * eb, ea * nb) + gamma)
