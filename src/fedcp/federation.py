"""Synchronous federation rounds over independent sites.

Each round: every site runs its local epoch against the current broadcast
anchors, perturbs its two feature factors, and uploads them; the server
applies one elastic step toward the uploads and broadcasts the new anchors.
Only bytes cross the site boundary: each upload is encoded with
``RoundMessage.to_bytes`` and the server decodes it before its step, so a
round's traffic is the length of those encodings. Patient factors never
leave a site: the upload message has no field for them. Sites keep their
local feature factors; the broadcast only moves the penalty anchors.

Reductions are ordered by site id, so a run is bit-reproducible whether
sites execute serially or on a worker pool.
"""

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ProtocolError
from .privacy import (
    PrivacyAccountant,
    PrivacyParams,
    gaussian_sigma,
    l2_sensitivity,
    perturb_matrix,
)
from .solver import SiteState, SolverParams, derive_site_seed, init_site_state, run_local_epoch
from .tensor import rmse

HEADER_BYTES = 24
MESSAGE_TAG = 1  # combined B-then-C payload
_VALUE_BYTES = 8


@dataclass
class ServerState:
    """Global anchor pair plus the round counter and expected cohort size."""

    B_hat: np.ndarray
    C_hat: np.ndarray
    n_sites: int
    epoch: int = 0


def init_server(j_dim: int, k_dim: int, rank: int, seed: int, n_sites: int) -> ServerState:
    """Random anchors drawn from the server's own stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, 0)))
    return ServerState(
        B_hat=rng.random((j_dim, rank)),
        C_hat=rng.random((k_dim, rank)),
        n_sites=n_sites,
    )


def message_bytes(j_dim: int, k_dim: int, rank: int) -> int:
    """Encoded length of one upload: the header, then the B and C values."""
    return HEADER_BYTES + _VALUE_BYTES * rank * (j_dim + k_dim)


@dataclass(frozen=True)
class RoundMessage:
    """One site's upload: the two noised feature factors, nothing else."""

    site_id: int
    epoch: int
    priv_B: np.ndarray
    priv_C: np.ndarray

    def to_bytes(self) -> bytes:
        """Little-endian: three int64 header words, then B then C row-major."""
        return b"".join((
            struct.pack("<qqq", self.site_id, self.epoch, MESSAGE_TAG),
            np.ascontiguousarray(self.priv_B, dtype="<f8").tobytes(),
            np.ascontiguousarray(self.priv_C, dtype="<f8").tobytes(),
        ))

    @classmethod
    def from_bytes(cls, blob: bytes, j_dim: int, k_dim: int, rank: int) -> "RoundMessage":
        """Decode ``to_bytes`` output; the factors are read-only views of ``blob``."""
        expected = message_bytes(j_dim, k_dim, rank)
        if len(blob) != expected:
            raise ProtocolError(f"message has {len(blob)} bytes, expected {expected}")
        site_id, epoch, tag = struct.unpack("<qqq", blob[:HEADER_BYTES])
        if tag != MESSAGE_TAG:
            raise ProtocolError(f"unknown message tag {tag}")
        flat = np.frombuffer(blob, dtype="<f8", offset=HEADER_BYTES)
        split = j_dim * rank
        return cls(
            site_id=site_id,
            epoch=epoch,
            priv_B=flat[:split].reshape(j_dim, rank),
            priv_C=flat[split:].reshape(k_dim, rank),
        )


@dataclass(frozen=True)
class EpochMetrics:
    """Per-round outputs: fit, this round's traffic, and the running budget."""

    epoch: int
    rmse: float
    comm_bytes: int
    comm_seconds: float
    rho_total: float
    eps_exact: float
    eps_approx: float


def server_update(server: ServerState, uploads, eta: float, gamma: float) -> None:
    """One elastic step of the anchors toward the uploads, in place.

    Every site must appear exactly once, with an upload for the epoch after
    the server's. The sum runs in ascending site_id order against the
    pre-update anchors.
    """
    ids = sorted(m.site_id for m in uploads)
    if ids != list(range(server.n_sites)):
        raise ProtocolError(f"expected one upload from each of {server.n_sites} sites, got ids {ids}")
    by_id = {m.site_id: m for m in uploads}
    delta_b = np.zeros_like(server.B_hat)
    delta_c = np.zeros_like(server.C_hat)
    for t in range(server.n_sites):
        msg = by_id[t]
        if msg.epoch != server.epoch + 1:
            raise ProtocolError(
                f"upload from site {t} is for epoch {msg.epoch}, expected epoch {server.epoch + 1}"
            )
        if msg.priv_B.shape != server.B_hat.shape or msg.priv_C.shape != server.C_hat.shape:
            raise DimensionError(f"upload from site {t} has wrong shape")
        delta_b += gamma * (msg.priv_B - server.B_hat)
        delta_c += gamma * (msg.priv_C - server.C_hat)
    server.B_hat = server.B_hat + eta * delta_b
    server.C_hat = server.C_hat + eta * delta_c
    server.epoch += 1


def pooled_rmse(sites) -> float:
    """Fit over the union of all shards, each scored with its own factors."""
    return rmse([s.tensor for s in sites], sites)


def build_upload(state: SiteState, epoch: int, sigma: float) -> RoundMessage:
    """A site's upload: only the noised feature factors ever leave."""
    return RoundMessage(
        site_id=state.site_id,
        epoch=epoch,
        priv_B=perturb_matrix(state.B, sigma, state.noise_rng),
        priv_C=perturb_matrix(state.C, sigma, state.noise_rng),
    )


def run_round(
    sites,
    server: ServerState,
    params: SolverParams,
    priv: PrivacyParams,
    accountant: PrivacyAccountant,
    transfer_rate: float,
    pool=None,
) -> EpochMetrics:
    """One synchronous round; advances ``sites`` and ``server`` in place and
    returns the round's EpochMetrics.

    ``pool`` may be any concurrent.futures.Executor; sites share no mutable
    state, and the reduction is ordered, so the result does not depend on it.
    The compiled SGD pass runs without the GIL, so on a thread pool the
    sites' local passes overlap.
    """
    epoch = server.epoch + 1
    sensitivity = l2_sensitivity(params.tau, params.clip, params.eta)
    sigma = gaussian_sigma(sensitivity, priv.rho)
    anchors = (server.B_hat, server.C_hat)

    def site_work(state: SiteState) -> bytes:
        run_local_epoch(state, anchors, params)
        return build_upload(state, epoch, sigma).to_bytes()

    if pool is None:
        blobs = [site_work(s) for s in sites]
    else:
        blobs = list(pool.map(site_work, sites))
    (j_dim, rank), k_dim = server.B_hat.shape, server.C_hat.shape[0]
    messages = [RoundMessage.from_bytes(blob, j_dim, k_dim, rank) for blob in blobs]

    # the server checks the cohort before any release is recorded
    server_update(server, messages, params.eta, params.gamma)
    for msg in messages:
        accountant.record(epoch, msg.site_id, "B", priv.rho, sigma, sensitivity)
        accountant.record(epoch, msg.site_id, "C", priv.rho, sigma, sensitivity)

    comm_bytes = 2 * sum(len(blob) for blob in blobs)  # upload + broadcast
    eps_exact, eps_approx = accountant.epsilon()
    metrics = EpochMetrics(
        epoch=epoch,
        rmse=pooled_rmse(sites),
        comm_bytes=comm_bytes,
        comm_seconds=comm_bytes / transfer_rate,
        rho_total=accountant.rho_total,
        eps_exact=eps_exact,
        eps_approx=eps_approx,
    )
    return metrics


def comm_cost(
    j_dim: int,
    k_dim: int,
    rank: int,
    n_sites: int,
    epochs: int,
    transfer_rate: float,
) -> tuple[int, float]:
    """Total round-trip traffic of a run: bytes and wall seconds at the rate.

    Upload and broadcast are counted symmetrically, hence the factor 2.
    """
    if j_dim < 1 or k_dim < 1 or rank < 1 or n_sites < 1 or epochs < 0:
        raise ValueError("dims, rank and site count must be positive; epochs non-negative")
    total = epochs * n_sites * 2 * message_bytes(j_dim, k_dim, rank)
    return total, total / transfer_rate


def factor_snapshot(sites) -> list:
    """Copies of each site's (B, C) pair, for convergence checks."""
    return [(s.B.copy(), s.C.copy()) for s in sites]


def has_converged(prev, curr, tol: float) -> bool:
    """True iff the worst relative Frobenius change of any feature factor is
    strictly below ``tol``."""
    if len(prev) != len(curr):
        raise DimensionError("site counts differ between snapshots")
    worst = 0.0
    for (pb, pc), (cb, cc) in zip(prev, curr):
        for p, c in ((pb, cb), (pc, cc)):
            if p.shape != c.shape:
                raise DimensionError("snapshot shapes differ")
            denom = max(float(np.linalg.norm(p)), 1e-12)
            worst = max(worst, float(np.linalg.norm(c - p)) / denom)
    return worst < tol


@dataclass
class RunResult:
    """Everything a driver needs after the last round."""

    metrics: list
    sites: list
    server: ServerState
    accountant: PrivacyAccountant
    converged: bool
    initial_rmse: float


def run_experiment(
    shards,
    rank: int,
    params: SolverParams,
    priv: PrivacyParams,
    seed: int,
    max_epochs: int = 100,
    tol: float = 1e-4,
    transfer_rate: float = 15e6,
    fixed_epochs: int | None = None,
    pool=None,
) -> RunResult:
    """Drive rounds until convergence or the epoch limit.

    With ``fixed_epochs`` set, exactly that many rounds run regardless of
    convergence (budget-first mode); the convergence flag then reports
    whether the final round met the criterion.
    """
    n_sites = len(shards)
    if n_sites < 1:
        raise ValueError("need at least one shard")
    j_dim, k_dim = shards[0].dims[1], shards[0].dims[2]
    for sh in shards:
        if sh.dims[1] != j_dim or sh.dims[2] != k_dim:
            raise DimensionError("shards disagree on feature dims")
    if params.eta * params.gamma * n_sites >= 1.0 and params.gamma > 0:
        warnings.warn(
            "eta * gamma * n_sites >= 1; the anchor update may be unstable",
            RuntimeWarning,
            stacklevel=2,
        )

    sites = [
        init_site_state(sh, rank, derive_site_seed(seed, t), t)
        for t, sh in enumerate(shards)
    ]
    server = init_server(j_dim, k_dim, rank, seed, n_sites)
    accountant = PrivacyAccountant(n_sites=n_sites, delta=priv.delta)
    initial_rmse = pooled_rmse(sites)

    rounds = fixed_epochs if fixed_epochs is not None else max_epochs
    metrics: list[EpochMetrics] = []
    converged = False
    prev = factor_snapshot(sites)
    for _ in range(rounds):
        metrics.append(
            run_round(sites, server, params, priv, accountant, transfer_rate, pool=pool)
        )
        curr = factor_snapshot(sites)
        converged = has_converged(prev, curr, tol)
        prev = curr
        if fixed_epochs is None and converged:
            break
    return RunResult(
        metrics=metrics,
        sites=sites,
        server=server,
        accountant=accountant,
        converged=converged,
        initial_rmse=initial_rmse,
    )
