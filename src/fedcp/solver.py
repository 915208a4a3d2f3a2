"""One site's optimization pass.

The solver cycles through the shard's non-zeros in a shuffled order,
updating one row of each factor per observation, then applies a grouped
soft-threshold to the patient factor so that weak components are zeroed
column by column. Feature-factor rows feel an elastic pull toward the
server's broadcast anchors. ``entry_gradients`` is the one place that
computes an observation's clipped row gradients; the pass applies them.

Every site owns three private random streams derived from its seed:
stream 0 initializes factors, stream 1 drives shuffling, stream 2 is
reserved for upload noise. Two sites given equal shards and seeds
therefore produce identical trajectories.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericOverflowError
from .tensor import SparseTensorCOO

INIT_STREAM = 0
SHUFFLE_STREAM = 1
NOISE_STREAM = 2

PROX_SCALED = "eta_mu"  # threshold = eta * mu (proximal-gradient form; default)
PROX_PLAIN = "mu"       # threshold = mu (literal printed variant)


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
    prox_threshold: str = PROX_SCALED

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if int(self.tau) != self.tau or self.tau < 1:
            raise ValueError("tau must be an integer >= 1")
        self.tau = int(self.tau)
        if self.clip <= 0:
            raise ValueError("clip bound must be positive")
        if self.prox_threshold not in (PROX_SCALED, PROX_PLAIN):
            raise ValueError(f"unknown prox_threshold mode {self.prox_threshold!r}")

    def threshold(self) -> float:
        """Shrinkage applied to patient-factor columns after each pass."""
        if self.prox_threshold == PROX_SCALED:
            return self.eta * self.mu
        return self.mu


@dataclass
class SiteState:
    """One site's shard, factor triple, id, and private random streams."""

    tensor: SparseTensorCOO
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rng_seed: int
    site_id: int
    shuffle_rng: np.random.Generator = field(init=False, repr=False)
    noise_rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        i_dim, j_dim, k_dim = self.tensor.dims
        if self.A.shape[0] != i_dim or self.B.shape[0] != j_dim or self.C.shape[0] != k_dim:
            raise DimensionError("factor row counts do not match the shard dims")
        if not (self.A.shape[1] == self.B.shape[1] == self.C.shape[1]):
            raise DimensionError("factor matrices must share one rank")
        self.shuffle_rng = site_stream(self.rng_seed, SHUFFLE_STREAM)
        self.noise_rng = site_stream(self.rng_seed, NOISE_STREAM)

    @property
    def rank(self) -> int:
        return self.A.shape[1]


def init_site_state(tensor: SparseTensorCOO, rank: int, seed: int, site_id: int) -> SiteState:
    """Fresh site with factors drawn i.i.d. uniform [0, 1) from stream 0."""
    rng = site_stream(seed, INIT_STREAM)
    i_dim, j_dim, k_dim = tensor.dims
    a = rng.random((i_dim, rank))
    b = rng.random((j_dim, rank))
    c = rng.random((k_dim, rank))
    return SiteState(tensor=tensor, A=a, B=b, C=c, rng_seed=seed, site_id=site_id)


def entry_gradients(a, b, c, value, b_anchor, c_anchor, gamma, clip):
    """Row gradients at one observation, all taken at the current rows.

    Only the residual terms are clipped, each to 2-norm <= clip (an infinite
    clip disables it); the quadratic anchor pull is added afterwards,
    matching what the sensitivity bound covers. Raises NumericOverflowError
    when the residual is not finite.
    """
    bc = b * c
    resid = float(a @ bc) - value
    if not math.isfinite(resid):
        raise NumericOverflowError("residual became non-finite")
    ga = resid * bc
    gb = resid * (a * c)
    gc = resid * (a * b)
    if math.isfinite(clip):
        norm = math.sqrt(float(ga @ ga))
        if norm > clip:
            ga = ga * (clip / norm)
        norm = math.sqrt(float(gb @ gb))
        if norm > clip:
            gb = gb * (clip / norm)
        norm = math.sqrt(float(gc @ gc))
        if norm > clip:
            gc = gc * (clip / norm)
    return ga, gb + gamma * (b - b_anchor), gc + gamma * (c - c_anchor)


def prox_l21(A: np.ndarray, threshold: float) -> np.ndarray:
    """Columnwise group soft-threshold.

    Each column is scaled by (1 - threshold/norm)+, so a column whose norm
    is at or below the threshold comes back exactly zero. Zero threshold is
    the identity.
    """
    if not np.isfinite(threshold) or threshold < 0:
        raise ValueError("threshold must be finite and non-negative")
    A = np.asarray(A, dtype=np.float64)
    if threshold == 0.0:
        return A.copy()
    norms = np.linalg.norm(A, axis=0)
    scale = np.zeros_like(norms)
    np.divide(threshold, norms, out=scale, where=norms > 0)
    scale = np.maximum(0.0, 1.0 - scale)
    scale[norms == 0] = 0.0
    return A * scale[None, :]


_STEP_SIZE_WARNING = (
    "learning rate exceeds the 2/beta stability bound for a feature-factor update"
)


def run_local_epoch(state: SiteState, anchors, params: SolverParams) -> SiteState:
    """tau shuffled passes over the shard, each ending in the prox step.

    ``anchors`` is the broadcast (B_hat, C_hat) pair; it is read, never
    written. The state's factors and shuffle stream advance in place.

    Each entry's step comes from ``entry_gradients`` at the pre-update
    rows; non-finite values are caught through the residual, which names
    the entry, and a per-pass sweep.
    """
    b_hat, c_hat = anchors
    if b_hat.shape != state.B.shape or c_hat.shape != state.C.shape:
        raise DimensionError("anchor shapes do not match the site's feature factors")
    beta = max(
        beta_lipschitz(state.A, state.C, params.gamma),
        beta_lipschitz(state.A, state.B, params.gamma),
    )
    if beta > 0 and params.eta > 2.0 / beta:
        warnings.warn(_STEP_SIZE_WARNING, RuntimeWarning, stacklevel=2)

    coords = state.tensor.coords
    row_i = coords[:, 0].tolist()
    row_j = coords[:, 1].tolist()
    row_k = coords[:, 2].tolist()
    vals = state.tensor.values.tolist()
    eta = params.eta
    gamma = params.gamma
    clip = params.clip
    threshold = params.threshold()
    A, B, C = state.A, state.B, state.C
    for _ in range(params.tau):
        order = state.shuffle_rng.permutation(state.tensor.nnz).tolist()
        try:
            for n in order:
                i = row_i[n]
                j = row_j[n]
                k = row_k[n]
                a = A[i]
                b = B[j]
                c = C[k]
                ga, gb, gc = entry_gradients(
                    a, b, c, vals[n], b_hat[j], c_hat[k], gamma, clip
                )
                A[i] = a - eta * ga
                B[j] = b - eta * gb
                C[k] = c - eta * gc
        except NumericOverflowError as exc:
            raise NumericOverflowError(f"{exc} at entry ({i}, {j}, {k})") from None
        for name, m in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(m)):
                bad = int(np.where(~np.isfinite(m).all(axis=1))[0][0])
                raise NumericOverflowError(f"{name} row {bad} became non-finite")
        state.A = prox_l21(state.A, threshold)
        A = state.A
    return state


def beta_lipschitz(A, C, gamma: float) -> float:
    """Smoothness bound for a feature-factor subproblem.

    Frobenius norm of (A^T A) * (C^T C) + gamma I, elementwise product.
    Step sizes above 2/beta lose the descent guarantee.
    """
    A = np.asarray(A, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if A.shape[1] != C.shape[1]:
        raise DimensionError("factor matrices must share one rank")
    r = A.shape[1]
    g = (A.T @ A) * (C.T @ C) + gamma * np.eye(r)
    return float(np.linalg.norm(g, "fro"))
