"""Acceptance gate: each test prints one PASS/FAIL line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import spearmanr

from fedcp.baseline import run_centralized_sgd
from fedcp.data import SynthSpec, generate_synthetic
from fedcp.federation import build_upload, comm_cost, init_server, run_experiment
from fedcp.privacy import (
    PrivacyParams,
    compose_serial,
    gaussian_sigma,
    l2_sensitivity,
    perturb_matrix,
    rho_for_target,
    zcdp_to_dp,
    zcdp_to_dp_approx,
)
from fedcp.solver import (
    SolverParams,
    entry_gradients,
    init_site_state,
    prox_l21,
    run_local_epoch,
)
from fedcp.tensor import FactorizationResult, fms, zero_column_count


def _criterion(number, description, passed, limit_s, elapsed_s):
    in_time = elapsed_s < limit_s
    verdict = "PASS" if (passed and in_time) else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {verdict} ({elapsed_s:.2f}s / limit {limit_s:.0f}s) {description}"
    )
    assert passed, f"criterion {number} failed: {description}"
    assert in_time, f"criterion {number} overran: {elapsed_s:.2f}s >= {limit_s}s"


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        rank = int(rng.integers(1, 4))
        i_dim, j_dim, k_dim = (int(d) for d in rng.integers(1, 6, size=3))
        full_a = rng.uniform(-1.5, 1.5, (i_dim, rank))
        full_b = rng.uniform(-1.5, 1.5, (j_dim, rank))
        full_c = rng.uniform(-1.5, 1.5, (k_dim, rank))
        anchors_b = rng.uniform(-1.5, 1.5, (j_dim, rank))
        anchors_c = rng.uniform(-1.5, 1.5, (k_dim, rank))
        i = int(rng.integers(0, i_dim))
        j = int(rng.integers(0, j_dim))
        k = int(rng.integers(0, k_dim))
        a, b, c = full_a[i], full_b[j], full_c[k]
        b_hat, c_hat = anchors_b[j], anchors_c[k]
        value = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(0.0, 8.0))
        ga, gb, gc = entry_gradients(a, b, c, value, b_hat, c_hat, gamma, math.inf)

        def loss(av, bv, cv):
            resid = float(av @ (bv * cv)) - value
            return (
                0.5 * resid * resid
                + 0.5 * gamma * float(np.sum((bv - b_hat) ** 2))
                + 0.5 * gamma * float(np.sum((cv - c_hat) ** 2))
            )

        for which, grad in (("a", ga), ("b", gb), ("c", gc)):
            fd = np.zeros(rank)
            for d in range(rank):
                step = np.zeros(rank)
                step[d] = h
                if which == "a":
                    fd[d] = (loss(a + step, b, c) - loss(a - step, b, c)) / (2 * h)
                elif which == "b":
                    fd[d] = (loss(a, b + step, c) - loss(a, b - step, c)) / (2 * h)
                else:
                    fd[d] = (loss(a, b, c + step) - loss(a, b, c - step)) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-9)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        f"analytic row gradients vs central differences, worst rel err {worst:.2e} < 1e-5",
        worst < 1e-5,
        5.0,
        elapsed,
    )


def test_criterion_02_prox_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        col = rng.standard_normal(n) * float(rng.uniform(0.2, 3.0))
        threshold = float(rng.uniform(0.0, 2.0))
        out = prox_l21(col.reshape(-1, 1), threshold).ravel()

        def objective(theta):
            return 0.5 * float(np.sum((theta - col) ** 2)) + threshold * float(
                np.linalg.norm(theta)
            )

        # numeric minimizer: dense line search along the column direction
        norm = float(np.linalg.norm(col))
        scales = np.linspace(0.0, 1.5, 300001)
        line = 0.5 * (scales * norm - norm) ** 2 + threshold * scales * norm
        gap = objective(out) - float(line.min())
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-6
    # zero threshold is the identity
    a = rng.standard_normal((5, 3))
    ok &= bool(np.array_equal(prox_l21(a, 0.0), a))
    # columns at or below the threshold vanish exactly
    small = prox_l21(np.array([[0.3], [0.4]]), 1.0)
    ok &= small.ravel().tolist() == [0.0, 0.0]
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        f"grouped soft-threshold attains the shrinkage optimum (worst gap {worst_gap:.2e})",
        ok,
        5.0,
        elapsed,
    )


def test_criterion_03_privacy_round_trip():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for eps in (0.5, 1.2, 1.9):
        for delta in (1e-4, 1e-6):
            for epochs in (10, 20, 50):
                rho = rho_for_target(eps, delta, epochs)
                total = compose_serial([rho] * (2 * epochs))
                err = abs(zcdp_to_dp_approx(total, delta) - eps)
                worst = max(worst, err)
                ok &= err < 1e-9
    eps_exact = zcdp_to_dp(compose_serial([1e-3] * 40), 1e-4)
    ok &= 1.2 <= eps_exact <= 1.3
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        f"budget round trips to 1e-9 (worst {worst:.1e}); 20-epoch exact eps {eps_exact:.4f} in [1.2, 1.3]",
        ok,
        1.0,
        elapsed,
    )


def test_criterion_04_noise_calibration():
    start = time.perf_counter()
    sensitivity = l2_sensitivity(2, 1.0, 0.01)
    sigma = gaussian_sigma(sensitivity, 1e-3)
    rng = np.random.default_rng(104)
    base = np.zeros((1000, 1000))
    noise = perturb_matrix(base, sigma, rng) - base
    ratio = float(noise.std()) / sigma
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        f"empirical noise std over 1e6 draws within 2% of sigma (ratio {ratio:.4f})",
        abs(ratio - 1.0) < 0.02,
        10.0,
        elapsed,
    )


def test_criterion_05_noise_free_convergence():
    start = time.perf_counter()
    spec = SynthSpec(dims=(100, 30, 40), rank_true=5, sparsity=1e-3, n_sites=5, seed=7)
    _, shards, _ = generate_synthetic(spec)
    params = SolverParams(eta=0.02, gamma=5.0, mu=0.0, tau=5, clip=1.0)
    result = run_experiment(
        shards, rank=5, params=params, priv=PrivacyParams(rho=math.inf),
        seed=3, max_epochs=50, tol=1e-9,
    )
    ratio = result.metrics[-1].rmse / result.initial_rmse
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        f"noise-free fit halves the initial error within 50 epochs (ratio {ratio:.3f})",
        len(result.metrics) <= 50 and ratio <= 0.5,
        60.0,
        elapsed,
    )


def test_criterion_06_centralized_equivalence():
    start = time.perf_counter()
    spec = SynthSpec(dims=(50, 16, 18), rank_true=3, sparsity=5e-3, n_sites=1, seed=5)
    tensor, shards, _ = generate_synthetic(spec)
    params = SolverParams(eta=0.02, gamma=0.0, mu=0.0, tau=2, clip=1.0)
    federated = run_experiment(
        shards, rank=3, params=params, priv=PrivacyParams(rho=math.inf),
        seed=9, max_epochs=10, tol=1e-15,
    )
    baseline = run_centralized_sgd(
        tensor, rank=3, eta=0.02, tau=2, epochs=len(federated.metrics), seed=9, clip=1.0
    )
    fed_curve = [m.rmse for m in federated.metrics]
    identical = fed_curve == baseline.rmse_per_epoch
    factors_match = (
        np.array_equal(federated.sites[0].A, baseline.factors.A)
        and np.array_equal(federated.sites[0].B, baseline.factors.B)
        and np.array_equal(federated.sites[0].C, baseline.factors.C)
    )
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        "single site with no penalties reproduces the standalone SGD fit bit-exactly",
        identical and factors_match,
        60.0,
        elapsed,
    )


# at eps = 0.1 the noise grows the factors until some entry's step curvature
# reads 105-403 (by seed) against 2/eta = 100, so the step-size check warns
@pytest.mark.filterwarnings("ignore:learning rate exceeds the 2/beta stability bound:RuntimeWarning")
def test_criterion_07_privacy_utility_trend():
    start = time.perf_counter()
    eps_grid = [0.1, 0.5, 1.0, 2.0, 5.0]
    delta = 1e-4
    fixed_epochs = 10
    params = SolverParams(eta=0.02, gamma=5.0, mu=0.0, tau=1, clip=1.0)
    pairs = []
    for seed in range(5):
        spec = SynthSpec(
            dims=(60, 20, 24), rank_true=4, sparsity=2e-3, n_sites=2, seed=100 + seed
        )
        _, shards, _ = generate_synthetic(spec)
        reference = run_experiment(
            shards, rank=4, params=params, priv=PrivacyParams(rho=math.inf, delta=delta),
            seed=seed, fixed_epochs=fixed_epochs,
        )
        ref_factors = [
            FactorizationResult(s.A, s.B, s.C) for s in reference.sites
        ]
        for eps in eps_grid:
            rho = rho_for_target(eps, delta, fixed_epochs)
            private = run_experiment(
                shards, rank=4, params=params, priv=PrivacyParams(rho=rho, delta=delta),
                seed=seed, fixed_epochs=fixed_epochs,
            )
            score = float(
                np.mean(
                    [
                        fms(FactorizationResult(s.A, s.B, s.C), ref)
                        for s, ref in zip(private.sites, ref_factors)
                    ]
                )
            )
            pairs.append((eps, score))
    correlation = float(spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic)
    means = {e: np.mean([s for ee, s in pairs if ee == e]) for e in eps_grid}
    shape_ok = means[eps_grid[-1]] == max(means.values()) and means[eps_grid[-1]] > 0.9
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        f"factor match score rises with the budget (spearman {correlation:.3f} > 0.8, "
        f"mean at eps=5 is {means[5.0]:.3f})",
        correlation > 0.8 and shape_ok,
        300.0,
        elapsed,
    )


def test_criterion_08_communication_linearity():
    start = time.perf_counter()
    j_dim, k_dim, rank, epochs, rate = 202, 316, 50, 10, 15e6
    b1, s1 = comm_cost(j_dim, k_dim, rank, 1, epochs, rate)
    b5, s5 = comm_cost(j_dim, k_dim, rank, 5, epochs, rate)
    b10, s10 = comm_cost(j_dim, k_dim, rank, 10, epochs, rate)
    # the model is exactly linear: integer bytes scale exactly, and seconds
    # are bytes/rate, so their true ratios are the exact rationals 5 and 10
    exact = (
        b5 == 5 * b1
        and b10 == 10 * b1
        and Fraction(b5, b1) == 5
        and Fraction(b10, b1) == 10
    )
    float_close = abs(s5 / s1 - 5) < 1e-12 and abs(s10 / s1 - 10) < 1e-12
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        "communication cost stands in exact ratio 1 : 5 : 10 across site counts",
        exact and float_close,
        1.0,
        elapsed,
    )


def test_criterion_09_heterogeneity_capture():
    start = time.perf_counter()
    site, component = 2, 1
    spec = SynthSpec(
        dims=(45, 15, 18), rank_true=3, sparsity=5e-2, n_sites=3,
        heterogeneity={site: (component,)}, seed=21,
    )
    _, shards, truths = generate_synthetic(spec)
    mu_grid = [0.0, 0.2, 0.6, 1.0, 2.0]
    calibrated_mu = 0.6
    counts = []
    calibrated_site = None
    for mu in mu_grid:
        params = SolverParams(eta=0.035, gamma=5.0, mu=mu, tau=3, clip=1.0)
        result = run_experiment(
            shards, rank=3, params=params, priv=PrivacyParams(rho=math.inf),
            seed=3, fixed_epochs=350,
        )
        counts.append(zero_column_count(result.sites[site].A))
        if mu == calibrated_mu:
            calibrated_site = result.sites[site]

    # identify which solver column tracks the suppressed truth component by
    # cosine agreement of the shared feature modes
    def cosines(mx, my):
        gram = mx.T @ my
        denom = np.outer(np.linalg.norm(mx, axis=0), np.linalg.norm(my, axis=0))
        return np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0)

    agreement = np.abs(
        cosines(calibrated_site.B, truths[site].B)
        * cosines(calibrated_site.C, truths[site].C)
    )
    matched = np.full(3, -1)
    for _ in range(3):
        row, col = divmod(int(np.argmax(agreement)), 3)
        matched[row] = col
        agreement[row, :] = -np.inf
        agreement[:, col] = -np.inf
    suppressed_cols = [c for c in range(3) if matched[c] == component]
    norms = np.linalg.norm(calibrated_site.A, axis=0)
    monotone = counts == sorted(counts)
    suppressed_dead = all(norms[c] == 0.0 for c in suppressed_cols)
    shared_alive = all(norms[c] > 0.0 for c in range(3) if c not in suppressed_cols)
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        f"zero columns non-decreasing in mu {counts}; at mu={calibrated_mu} the missing "
        f"component's column is off while shared ones survive (norms {np.round(norms, 3)})",
        monotone and len(suppressed_cols) == 1 and suppressed_dead and shared_alive,
        120.0,
        elapsed,
    )


def test_criterion_10_no_patient_leak():
    start = time.perf_counter()
    spec = SynthSpec(dims=(12, 5, 6), rank_true=2, sparsity=1e-2, n_sites=2, seed=2)
    _, shards, _ = generate_synthetic(spec)
    sites = [init_site_state(sh, 2, seed=t + 1, site_id=t) for t, sh in enumerate(shards)]
    server = init_server(5, 6, 2, seed=0, n_sites=2)
    params = SolverParams(eta=0.02, gamma=1.0, mu=0.1, tau=1)
    sigma = gaussian_sigma(l2_sensitivity(params.tau, params.clip, params.eta), 1e-3)

    blobs = []
    sentinels = []
    for state in sites:
        run_local_epoch(state, (server.B_hat, server.C_hat), params)
        # distinctive full-mantissa doubles stand in for patient values
        marks = 777.1234567890123 + np.arange(state.A.size).reshape(state.A.shape) * 0.0009765625
        state.A[:, :] = marks
        sentinels.extend(float(v) for v in marks.ravel())
        blobs.append(build_upload(state, 1, sigma).to_bytes())

    payload = b"".join(blobs)
    leaked = sum(struct.pack("<d", v) in payload for v in sentinels)
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        f"serialized uploads contain no bytes of any patient factor ({len(sentinels)} sentinels scanned)",
        leaked == 0,
        1.0,
        elapsed,
    )
