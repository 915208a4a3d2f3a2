"""Synchronous federation rounds over independent sites.

Each round: every site runs its local epoch against the current broadcast
anchors, perturbs its two feature factors, and uploads them; the server
applies one elastic step toward the uploads and broadcasts the new anchors.
Only bytes cross the site boundary: each upload is encoded with
``RoundMessage.to_bytes``, and the server takes the cohort's encodings as
its only input, so a round's traffic is the length of those encodings.
The server reads each one's header, then its values in place, and holds
the last accepted cohort's encodings, nothing else, between rounds.
Patient factors never leave a site: the upload message has no field for
them. Sites keep their local feature factors; the broadcast only moves
the penalty anchors.

A site's local epoch also returns its sum for the round's RMSE, so the
round never rescans a shard. The server takes the round's change from the
uploads alone, which spends no budget, in the same step as the anchors:
with the compiled library one call to ``server_step`` over the encodings,
else the numpy step and ``worst_change`` over views of their values,
which stay as its reference. Reductions are ordered by site id, so a run
is bit-reproducible whether sites execute serially or on a thread pool.
"""

import ctypes
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DimensionError, NumericOverflowError, ProtocolError
from .privacy import (
    PrivacyAccountant,
    PrivacyParams,
    gaussian_sigma,
    l2_sensitivity,
    perturb_matrix,
)
from .solver import SiteState, SolverParams, derive_site_seed, init_site_state
from .solver import run_local_epoch
from .tensor import rmse, root_mean_square

HEADER_BYTES = 24
MESSAGE_TAG = 1  # combined B-then-C payload
_VALUE_BYTES = 8
_HEADER = struct.Struct("<qqq")  # site_id, epoch, tag


@dataclass
class ServerState:
    """Global anchor pair, round counter and expected cohort size; during a
    run, also ``uploads``, the last accepted cohort's encodings in site
    order, against which the next round's change is taken. Both server
    paths read ``uploads`` alone and the same way, whether the last step
    or a caller put it there."""

    B_hat: np.ndarray
    C_hat: np.ndarray
    n_sites: int
    epoch: int = 0
    uploads: list | None = None


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


def _read_header(blob, length: int) -> tuple:
    """(site_id, epoch) from the header of an encoding that must be
    ``length`` bytes long and carry MESSAGE_TAG, else ProtocolError: the
    checks of ``RoundMessage.from_bytes``, which the server makes without
    decoding the values."""
    if len(blob) != length:
        raise ProtocolError(f"message has {len(blob)} bytes, expected {length}")
    site_id, epoch, tag = _HEADER.unpack_from(blob)
    if tag != MESSAGE_TAG:
        raise ProtocolError(f"unknown message tag {tag}")
    return site_id, epoch


def _values(blob, j_dim: int, k_dim: int, rank: int) -> tuple:
    """(B, C) of an encoding of the right length, as views of ``blob``:
    read-only for a ``bytes`` object."""
    flat = np.frombuffer(blob, dtype="<f8", offset=HEADER_BYTES)
    split = j_dim * rank
    return flat[:split].reshape(j_dim, rank), flat[split:].reshape(k_dim, rank)


@dataclass(frozen=True)
class RoundMessage:
    """One site's upload: the two noised feature factors, nothing else."""

    site_id: int
    epoch: int
    priv_B: np.ndarray
    priv_C: np.ndarray

    def to_bytes(self) -> bytes:
        """Little-endian: three int64 header words, then B then C row-major.
        The join copies each factor's buffer once, straight from the array."""
        return b"".join((
            _HEADER.pack(self.site_id, self.epoch, MESSAGE_TAG),
            np.ascontiguousarray(self.priv_B, dtype="<f8"),
            np.ascontiguousarray(self.priv_C, dtype="<f8"),
        ))

    @classmethod
    def from_bytes(cls, blob: bytes, j_dim: int, k_dim: int, rank: int) -> "RoundMessage":
        """Decode ``to_bytes`` output; the factors are read-only views of ``blob``."""
        site_id, epoch = _read_header(blob, message_bytes(j_dim, k_dim, rank))
        priv_b, priv_c = _values(blob, j_dim, k_dim, rank)
        return cls(site_id=site_id, epoch=epoch, priv_B=priv_b, priv_C=priv_c)


@dataclass(frozen=True)
class EpochMetrics:
    """Per-round outputs: fit (the evaluator's view, from unreleased factors),
    this round's traffic, the running budget, the worst relative change from
    a site's previous decoded upload to this one (None in round 1), and
    ``clipped``, the number of residual gradients the clip scaled, summed over
    the sites in site order (None where not known; the CSV writes neither)."""

    epoch: int
    rmse: float
    comm_bytes: int
    comm_seconds: float
    rho_total: float
    eps_exact: float
    eps_approx: float
    change: float | None = None
    clipped: int | None = None


def server_update(server: ServerState, blobs, eta: float, gamma: float) -> float | None:
    """One elastic step of the anchors toward a cohort of encoded uploads, in
    place, and the round's change: ``worst_change`` from the held cohort,
    ``server.uploads``, to this one, None while the server holds none.

    ``blobs`` are the cohort's encodings, in any order. Each must be a
    ``bytes`` object that ``RoundMessage.from_bytes`` decodes at the
    server's shapes, and every site must appear exactly once, with a finite
    upload for the epoch after the server's. The held cohort, when there is
    one, must be ``n_sites`` ``bytes`` objects of the message length; their
    headers are not read again. The sum runs in ascending site_id order
    against the pre-update anchors. The server then holds this cohort's
    encodings in site order. A rejected cohort leaves the server unchanged.

    Both paths read each upload's header with ``_read_header`` and decode
    none. With the compiled library loaded, the step, its finiteness test
    and the change are one call to ``server_step``, which reads the values
    in place. Otherwise ``_anchor_step`` and ``worst_change``, which stay
    as the compiled step's reference, take them from views of the values.
    """
    (j_dim, rank), k_dim = server.B_hat.shape, server.C_hat.shape[0]
    lib = _native.LIBRARY
    length = message_bytes(j_dim, k_dim, rank)
    heads = []  # (site_id, epoch, the encoding)
    for at, blob in enumerate(blobs):
        # server_step's alignment holds for a bytes object's own buffer
        if type(blob) is not bytes:
            raise ProtocolError(
                f"upload {at} of the cohort is a {type(blob).__name__}, not bytes"
            )
        try:
            heads.append((*_read_header(blob, length), blob))
        except ProtocolError as exc:
            raise ProtocolError(f"upload {at} of the cohort: {exc}") from None
    heads.sort(key=lambda head: head[0])
    ids = [head[0] for head in heads]
    if ids != list(range(server.n_sites)):
        raise ProtocolError(
            f"expected one upload from each of {server.n_sites} sites, got ids {ids}"
        )
    for t, (_, epoch, _) in enumerate(heads):
        if epoch != server.epoch + 1:
            raise ProtocolError(
                f"upload from site {t} is for epoch {epoch}, expected epoch {server.epoch + 1}"
            )
    prev = server.uploads
    if prev is not None:
        # a caller may set them, and server_step reads n_sites of them unchecked
        if len(prev) != server.n_sites:
            raise ProtocolError(f"the server holds {len(prev)} uploads, expected {server.n_sites}")
        for t, blob in enumerate(prev):
            if type(blob) is not bytes:
                raise ProtocolError(f"held upload {t} is a {type(blob).__name__}, not bytes")
            if len(blob) != length:
                raise ProtocolError(f"held upload {t}: message has {len(blob)} bytes, "
                                    f"expected {length}")
    cohort = [head[2] for head in heads]
    if lib is None:
        ordered = [_values(blob, j_dim, k_dim, rank) for blob in cohort]
        server_b, server_c = _anchor_step(server, ordered, eta, gamma)
        change = None
        if prev is not None:
            change = worst_change([_values(blob, j_dim, k_dim, rank) for blob in prev], ordered)
    else:
        split, size = server.B_hat.size, server.B_hat.size + server.C_hat.size
        array = ctypes.c_char_p * server.n_sites
        anchors = _native.anchor_addresses(server.B_hat, server.C_hat)
        out = np.empty(size)
        worst = ctypes.c_double()
        status = lib.server_step(
            server.n_sites, array(*cohort), None if prev is None else array(*prev), HEADER_BYTES,
            split, size, anchors[2], anchors[3], eta, gamma, out.ctypes.data, ctypes.byref(worst),
        )
        if status != 0:
            _reject_non_finite([_values(blob, j_dim, k_dim, rank) for blob in cohort])
        server_b = out[:split].reshape(server.B_hat.shape)
        server_c = out[split:].reshape(server.C_hat.shape)
        change = None if prev is None else worst.value
    server.B_hat, server.C_hat = server_b, server_c
    server.epoch += 1
    server.uploads = cohort
    return change


def _anchor_step(server: ServerState, ordered, eta: float, gamma: float) -> tuple:
    """The new anchors from the uploads' (B, C) pairs in site order, by
    numpy: the reference of ``server_step``'s step and the path without the
    library."""
    delta_b = np.zeros_like(server.B_hat)
    delta_c = np.zeros_like(server.C_hat)
    for priv_b, priv_c in ordered:
        delta_b += gamma * (priv_b - server.B_hat)
        delta_c += gamma * (priv_c - server.C_hat)
    # one test per round; the uploads are scanned only to name the site
    if not (np.isfinite(delta_b).all() and np.isfinite(delta_c).all()):
        _reject_non_finite(ordered)
    return server.B_hat + eta * delta_b, server.C_hat + eta * delta_c


def _reject_non_finite(ordered):
    """Raise for a step whose sum is not finite: ProtocolError naming the
    first site whose (B, C) pair, in site order, holds a non-finite value,
    else NumericOverflowError."""
    for t, (priv_b, priv_c) in enumerate(ordered):
        if not (np.isfinite(priv_b).all() and np.isfinite(priv_c).all()):
            raise ProtocolError(f"upload from site {t} holds a non-finite value")
    raise NumericOverflowError("the anchor step overflowed")


def pooled_rmse(sites) -> float:
    """Fit over the union of all shards, each scored with its own factors;
    the reference the round's RMSE is tested against."""
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

    ``pool`` may be a thread pool: a site's round advances it in place, so it
    cannot run in another process. Sites share no mutable state, and the
    reduction is ordered, so the result does not depend on the pool. The
    compiled site round runs without the GIL, so the local epochs overlap.

    A site's NumericOverflowError is raised again naming the site, the round
    and, under noise, sigma, which is often what sent the anchors and then
    the site's rows out of range. The first site in site order that failed
    is the one named, with or without a pool.
    """
    epoch = server.epoch + 1
    sensitivity = l2_sensitivity(params.tau, params.clip, params.eta)
    sigma = gaussian_sigma(sensitivity, priv.rho)
    anchors = (server.B_hat, server.C_hat)

    def site_work(state: SiteState):
        try:
            sums = run_local_epoch(state, anchors, params)
        except NumericOverflowError as exc:
            where = f"site {state.site_id}, round {epoch}"
            if sigma > 0:
                where += f", noise scale sigma = {sigma!r}"
            raise NumericOverflowError(f"{where}: {exc}") from exc
        return sums, build_upload(state, epoch, sigma).to_bytes()

    done = list(map(site_work, sites) if pool is None else pool.map(site_work, sites))
    sums, blobs = [d[0] for d in done], [d[1] for d in done]

    # the server checks the cohort, one upload from each site id, before
    # any release is recorded
    change = server_update(server, blobs, params.eta, params.gamma)
    for site_id in range(server.n_sites):
        accountant.record(epoch, site_id, "B", priv.rho, sigma, sensitivity)
        accountant.record(epoch, site_id, "C", priv.rho, sigma, sensitivity)

    comm_bytes = 2 * sum(len(blob) for blob in blobs)  # upload + broadcast
    eps_exact, eps_approx = accountant.epsilon()
    return EpochMetrics(
        epoch=epoch,
        rmse=root_mean_square([s.sse for s in sums], [s.tensor.nnz for s in sites]),
        comm_bytes=comm_bytes,
        comm_seconds=comm_bytes / transfer_rate,
        rho_total=accountant.rho_total,
        eps_exact=eps_exact,
        eps_approx=eps_approx,
        change=change,
        clipped=sum(s.clipped for s in sums),
    )


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
    """Copies of each site's (B, C) pair: at rho = inf, the uploads that the
    server's change is tested against. No run calls it."""
    return [(s.B.copy(), s.C.copy()) for s in sites]


def _relative_change(p2, d2) -> float:
    """sqrt(d2) / max(sqrt(p2), 1e-12) for the sums of p**2 and (c - p)**2."""
    return math.sqrt(d2) / max(math.sqrt(p2), 1e-12)


def worst_change(prev, curr) -> float:
    """The largest ``sqrt(np.sum((c - p) ** 2)) / max(sqrt(np.sum(p ** 2)), 1e-12)``
    over the feature factors p -> c of two cohorts of (B, C) pairs in site
    order, each sum an np.add.reduce, which never uses threaded BLAS; 0.0
    for none. ``server_update`` takes the round's change with it when the
    compiled library is not loaded."""
    if len(prev) != len(curr):
        raise DimensionError("site counts differ between snapshots")
    pairs = [pc for prev_t, curr_t in zip(prev, curr) for pc in zip(prev_t, curr_t)]
    if any(p.shape != c.shape for p, c in pairs):
        raise DimensionError("snapshot shapes differ")
    worst = 0.0
    for p, c in pairs:
        p2 = np.add.reduce(p ** 2, axis=None)
        worst = max(worst, _relative_change(p2, np.add.reduce((c - p) ** 2, axis=None)))
    return worst


def has_converged(prev, curr, tol: float) -> bool:
    """True iff ``worst_change(prev, curr) < tol``: the reference the server's
    change between cohorts of decoded uploads is tested against."""
    return worst_change(prev, curr) < tol


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

    A round converges when its ``change`` is below ``tol``; round 1 never
    does, and under noise the change sits near the noise floor. With
    ``fixed_epochs`` set, exactly that many rounds run regardless of
    convergence (budget-first mode, the private way to run); the
    convergence flag then reports whether the final round met the criterion.
    ``pool`` is None or a thread pool, as in ``run_round``.
    """
    n_sites = len(shards)
    if n_sites < 1:
        raise ValueError("need at least one shard")
    j_dim, k_dim = shards[0].dims[1], shards[0].dims[2]
    for sh in shards:
        if sh.dims[1] != j_dim or sh.dims[2] != k_dim:
            raise DimensionError("shards disagree on feature dims")
    if params.eta * params.gamma * n_sites >= 1.0:
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
    for _ in range(rounds):
        metrics.append(
            run_round(sites, server, params, priv, accountant, transfer_rate, pool=pool)
        )
        converged = metrics[-1].change is not None and metrics[-1].change < tol
        if fixed_epochs is None and converged:
            break
    # needed only between rounds
    server.uploads = None
    return RunResult(
        metrics=metrics,
        sites=sites,
        server=server,
        accountant=accountant,
        converged=converged,
        initial_rmse=initial_rmse,
    )
