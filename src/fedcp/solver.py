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

A round is one call of ``site_round`` in ``_sgd.c`` when
``_native.LIBRARY`` holds the compiled library: the step-size bound
beta, the draw of the tau orders from the shuffle stream, the tau passes
with the finiteness sweep and the prox step after each, and the sum for
the round's RMSE at its end. Else it runs in Python:
``beta_lipschitz``, ``Generator.permutation``, the pass loop, numpy's
sweep, ``prox_l21`` and ``reconstruct_values``, which stay as the
reference the compiled round is tested against. The two agree bit for
bit: the Python loop works in plain floats and sums every dot product
strictly left to right from the first product, the C file keeps numpy's
summation order in its norms and sums and numpy's shuffle algorithm in
its draws, and it is built without floating-point contraction.

The arguments of ``site_round`` that stay fixed from round to round (the
shard's contiguous coords and values, the dims, the factors' addresses,
the rank and the output buffers) are built on a site's first compiled
round and kept on its ``SiteState``; a round then reads only the
anchors' addresses, which ``_native.anchor_addresses`` reads once for
all the sites of a federation round, and the shuffle stream's bit
generator. Assigning ``tensor``, ``A``, ``B`` or ``C`` drops them, and
copies and pickles of a site leave them out.

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
    float64 matrix, copying only a value that is not one already or that
    may share memory with another of the three: the Python pass steps
    three lists of rows, and the compiled pass, which writes the factors in
    place, gives their bits only when no factor's row is another's.

    ``_round_args``, the compiled round's fixed arguments, hold addresses
    of this site's arrays: an assignment to ``tensor``, ``A``, ``B`` or
    ``C`` drops them, and a copy or pickle leaves them out, as a copy with
    them would write into the original's arrays."""

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
            held = (self.__dict__.get(other) for other in ("A", "B", "C") if other != name)
            if any(m is not None and np.may_share_memory(value, m) for m in held):
                value = value.copy()
        if name in ("tensor", "A", "B", "C"):
            self.__dict__.pop("_round_args", None)
        super().__setattr__(name, value)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_round_args", None)
        return state

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
    as ``tensor.rmse`` sums it, and ``clipped``, the number of residual
    gradients the clip scaled in the round's tau passes (up to three per
    entry and pass; 0 when clip is infinite)."""

    sse: float
    clipped: int


def run_local_epoch(state: SiteState, anchors, params: SolverParams) -> RoundSums:
    """tau shuffled passes over the shard, each followed by a finiteness
    sweep and the prox step with threshold eta * mu; returns the RoundSums.

    ``anchors`` is the broadcast (B_hat, C_hat) pair; it is read, never
    written. The state's factors and shuffle stream advance in place. With
    the compiled library, everything after the shape checks is one call of
    ``site_round``, which also draws the orders and computes the step-size
    bound; a round without memory for its scratch raises
    MemoryError having drawn and changed nothing. The step-size check reads
    the factors the round starts from and warns at the caller, before any
    error of the round is raised. All tau permutations are drawn before the
    first pass, so a round that raises has drawn every one. Each entry's
    step is taken at the pre-update rows. A non-finite residual raises
    NumericOverflowError naming the entry, with the entries before it in
    the pass applied; the sweep names any other non-finite row.
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
    if _native.LIBRARY is not None:
        beta, outcome = _compiled_round(state, b_hat, c_hat, params, threshold)
        _check_step_size(beta, params.eta)
        if isinstance(outcome, NumericOverflowError):
            raise outcome
        return outcome
    _check_step_size(beta_lipschitz(state.A, state.B, state.C, params.gamma), params.eta)

    coords = np.ascontiguousarray(state.tensor.coords, dtype=np.int64)
    values = np.ascontiguousarray(state.tensor.values, dtype=np.float64)
    orders = [state.shuffle_rng.permutation(state.tensor.nnz) for _ in range(params.tau)]
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
    return RoundSums(float(np.sum(resid * resid)), clipped)


def _check_step_size(beta: float, eta: float) -> None:
    """Warn when eta exceeds 2/beta; run_local_epoch calls this, so the
    warning names the line that called run_local_epoch."""
    if beta > 0 and eta > 2.0 / beta:
        warnings.warn(_STEP_SIZE_WARNING, RuntimeWarning, stacklevel=3)


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


def _round_args(state) -> tuple:
    """The site's fixed arguments of ``site_round``, built on its first
    compiled round and kept in ``state._round_args``: the arguments from
    nnz to tally, then the arrays they point to that the site does not
    hold, which the tuple keeps alive: the shard's contiguous coords and
    values, out and tally."""
    args = state.__dict__.get("_round_args")
    if args is None:
        coords = np.ascontiguousarray(state.tensor.coords, dtype=np.int64)
        values = np.ascontiguousarray(state.tensor.values, dtype=np.float64)
        out = np.empty(2)  # the sse, and beta of the factors the round starts from
        tally = np.empty(2, dtype=np.int64)  # the clip count, and where a round failed
        fixed = (
            state.tensor.nnz, coords.ctypes.data, values.ctypes.data, *state.tensor.dims,
            state.A.ctypes.data, state.B.ctypes.data, state.C.ctypes.data, state.A.shape[1],
            out.ctypes.data, tally.ctypes.data,
        )
        args = state.__dict__["_round_args"] = (fixed, coords, values, out, tally)
    return args


def _compiled_round(state, b_hat, c_hat, params, threshold) -> tuple:
    """``run_local_epoch`` after its checks, in one call of ``site_round``:
    (beta of the factors the round started from, the RoundSums or the
    NumericOverflowError the round stopped with). ``site_round`` draws the
    orders from the shuffle stream's bit generator, under the lock that
    numpy's own draws take, and computes beta as ``beta_lipschitz`` does.
    The caller has checked that the site's factors match the shard dims,
    so every index in the shard lies inside them."""
    fixed, coords, _, out, tally = _round_args(state)
    # the pair, converted when it must be, stays referenced until the call returns
    anchors = _native.anchor_addresses(b_hat, c_hat)
    stream = state.shuffle_rng.bit_generator
    with stream.lock:
        status = _native.LIBRARY.site_round(
            *fixed, params.tau, stream.ctypes.bit_generator, anchors[2], anchors[3],
            params.eta, params.gamma, params.clip, threshold,
        )
    if status == _NO_MEMORY:
        raise MemoryError("no memory for the site's round")
    sse, beta = out.tolist()
    clipped, where = tally.tolist()
    if status == _RESIDUAL:
        return beta, _residual_error(coords[where])
    if status >= _ROW:
        return beta, NumericOverflowError(f"{'ABC'[status - _ROW]} row {where} became non-finite")
    return beta, RoundSums(sse, clipped)


def beta_lipschitz(A, B, C, gamma: float) -> float:
    """Upper bound on the curvature of any one entry's step.

    For an entry's rows a, b, c the step on a has curvature ||b o c||^2,
    the step on b ||a o c||^2 + gamma and the step on c ||a o b||^2 + gamma
    (o the elementwise product). For factors X and Y every pair of rows
    has ||x o y||^2 <= min(n_X e_Y, e_X n_Y), with n a factor's largest
    squared row norm and e its largest squared entry; beta is the largest
    of the three pair bounds. Only maxima and ``np.add.reduce`` row sums,
    whose pairwise order ``site_round`` reproduces, and no BLAS, so the
    thread count cannot change it. Factors whose squares could overflow,
    or that hold NaN, give inf.
    """
    # C order, as a row's pairwise sum runs along contiguous values only
    factors = [np.ascontiguousarray(m, dtype=np.float64) for m in (A, B, C)]
    rank = factors[0].shape[1]
    if any(m.shape[1] != rank or m.size == 0 for m in factors):
        raise DimensionError("factor matrices must be non-empty and share one rank")
    tops = [float(np.max(np.abs(m))) for m in factors]
    # squares that overflow give inf norms, which _step_bound never reads
    with np.errstate(over="ignore"):
        norms = [float(np.max(np.add.reduce(m * m, axis=1))) for m in factors]
    return _step_bound(tops, norms, rank, gamma)


def _step_bound(tops, norms, rank: int, gamma: float) -> float:
    """beta from each factor's largest |entry| and largest squared row norm,
    A, B and C in turn; inf, without reading the norms, when a factor's
    squares could overflow or a top is NaN. ``step_bound`` in ``_sgd.c``
    takes the same operations in the same order for the compiled round."""
    # a Python float product overflows to inf without a warning; NaN < inf is False
    if not all(t * t * rank < math.inf for t in tops):
        return math.inf
    na, nb, nc = norms
    ea, eb, ec = (t * t for t in tops)
    return max(min(nb * ec, eb * nc), min(na * ec, ea * nc) + gamma, min(na * eb, ea * nb) + gamma)
