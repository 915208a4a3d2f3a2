"""Single-machine entry-wise SGD over one tensor.

This is the plain counterpart of the federated solver: one worker, no
anchor penalties, no column shrinkage, no noise. It shares the seed-stream
conventions so that a one-site, zero-penalty federated run and this loop
walk the same trajectory; the update arithmetic below is written out
independently of the site solver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .solver import INIT_STREAM, SHUFFLE_STREAM, derive_site_seed, site_stream
from .tensor import FactorizationResult, SparseTensorCOO, rmse


@dataclass(frozen=True)
class BaselineResult:
    rmse_per_epoch: list
    factors: FactorizationResult


def run_centralized_sgd(
    tensor: SparseTensorCOO,
    rank: int,
    eta: float,
    tau: int,
    epochs: int,
    seed: int,
    clip: float = np.inf,
) -> BaselineResult:
    """Run ``epochs`` epochs of tau-pass shuffled SGD and track fit per epoch.

    Seeding follows the site conventions with site id 0, so the stream of
    initial factors and shuffle orders is identical to the single site of a
    federated run using the same master seed.
    """
    site_seed = derive_site_seed(seed, 0)
    init_rng = site_stream(site_seed, INIT_STREAM)
    shuffle_rng = site_stream(site_seed, SHUFFLE_STREAM)
    i_dim, j_dim, k_dim = tensor.dims
    factors_a = init_rng.random((i_dim, rank))
    factors_b = init_rng.random((j_dim, rank))
    factors_c = init_rng.random((k_dim, rank))

    row_i = tensor.coords[:, 0].tolist()
    row_j = tensor.coords[:, 1].tolist()
    row_k = tensor.coords[:, 2].tolist()
    vals = tensor.values.tolist()
    bounded = math.isfinite(clip)
    fit_curve = []
    for _ in range(epochs):
        for _ in range(tau):
            order = shuffle_rng.permutation(tensor.nnz).tolist()
            for n in order:
                i = row_i[n]
                j = row_j[n]
                k = row_k[n]
                a = factors_a[i]
                b = factors_b[j]
                c = factors_c[k]
                bc = b * c
                resid = float(a @ bc) - vals[n]
                # all three steps use the pre-update rows
                ga = resid * bc
                gb = resid * (a * c)
                gc = resid * (a * b)
                if bounded:
                    norm = math.sqrt(float(ga @ ga))
                    if norm > clip:
                        ga = ga * (clip / norm)
                    norm = math.sqrt(float(gb @ gb))
                    if norm > clip:
                        gb = gb * (clip / norm)
                    norm = math.sqrt(float(gc @ gc))
                    if norm > clip:
                        gc = gc * (clip / norm)
                factors_a[i] = a - eta * ga
                factors_b[j] = b - eta * gb
                factors_c[k] = c - eta * gc
        fit_curve.append(
            rmse([tensor], [FactorizationResult(factors_a, factors_b, factors_c)])
        )
    return BaselineResult(
        rmse_per_epoch=fit_curve,
        factors=FactorizationResult(factors_a, factors_b, factors_c),
    )
