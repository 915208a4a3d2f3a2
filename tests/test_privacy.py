"""Noise calibration, composition bookkeeping, and budget conversion."""

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedcp import _native
from fedcp.privacy import (
    PrivacyAccountant,
    PrivacyParams,
    compose_serial,
    gaussian_sigma,
    l2_sensitivity,
    perturb_matrix,
    rho_for_target,
    zcdp_to_dp,
    zcdp_to_dp_approx,
)


@pytest.mark.parametrize("fn, args", [
    pytest.param(l2_sensitivity, (math.nan, 1.0, 0.01), id="sensitivity-tau"),
    pytest.param(l2_sensitivity, (1, math.nan, 0.01), id="sensitivity-lipschitz"),
    pytest.param(l2_sensitivity, (1, 1.0, math.nan), id="sensitivity-eta"),
    pytest.param(gaussian_sigma, (math.nan, 1e-3), id="sigma-sensitivity"),
    pytest.param(gaussian_sigma, (1.0, math.nan), id="sigma-rho"),
    pytest.param(perturb_matrix, (np.zeros(2), math.nan, np.random.default_rng(0)), id="perturb"),
    pytest.param(compose_serial, ([1e-3, math.nan],), id="compose"),
    pytest.param(zcdp_to_dp, (math.nan, 1e-4), id="exact"),
    pytest.param(zcdp_to_dp_approx, (math.nan, 1e-4), id="approx"),
    pytest.param(rho_for_target, (math.nan, 1e-4, 10), id="target-epsilon"),
    pytest.param(rho_for_target, (1.0, 1e-4, math.nan), id="target-epochs"),
    # a NaN spend would leave max() over the sites' sums to the order they sit in
    pytest.param(PrivacyAccountant(2, 1e-4).record, (1, 0, "B", math.nan, 0.1, 0.04),
                 id="record"),
    pytest.param(PrivacyAccountant(2, 1e-4).record, (1, 0, "B", 1e-3, math.nan, 0.04),
                 id="record-sigma"),
    pytest.param(PrivacyAccountant(2, 1e-4).record, (1, 0, "B", 1e-3, 0.1, math.nan),
                 id="record-sensitivity"),
])
def test_nan_is_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


class TestL2Sensitivity:
    def test_direct_values(self):
        assert l2_sensitivity(1, 1.0, 0.5) == 1.0
        assert l2_sensitivity(2, 1.0, 0.01) == pytest.approx(0.04, abs=1e-15)

    def test_linear_in_passes(self):
        assert l2_sensitivity(6, 1.0, 0.01) == pytest.approx(
            2 * l2_sensitivity(3, 1.0, 0.01), rel=1e-15
        )

    @pytest.mark.parametrize("args", [(0, 1.0, 1.0), (1, 0.0, 1.0), (1, 1.0, -1.0)])
    def test_rejects_non_positive(self, args):
        with pytest.raises(ValueError):
            l2_sensitivity(*args)


class TestGaussianSigma:
    def test_direct_value(self):
        # 0.04 * sqrt(500)
        assert gaussian_sigma(0.04, 1e-3) == pytest.approx(0.8944271909999159, abs=1e-12)

    def test_zero_sensitivity(self):
        assert gaussian_sigma(0.0, 1e-3) == 0.0

    def test_quadrupling_rho_halves_sigma(self):
        assert gaussian_sigma(1.0, 4e-3) == pytest.approx(
            gaussian_sigma(1.0, 1e-3) / 2, rel=1e-12
        )

    def test_infinite_rho_disables_noise(self):
        assert gaussian_sigma(5.0, math.inf) == 0.0

    def test_infinite_sensitivity_needs_infinite_rho(self):
        # an unbounded clip gives an unbounded sensitivity: no finite rho covers it
        with pytest.raises(ValueError, match="clip = inf"):
            gaussian_sigma(math.inf, 1e-3)
        assert gaussian_sigma(math.inf, math.inf) == 0.0

    def test_a_noise_scale_that_overflows_is_refused_naming_rho(self):
        # 1 / (2 rho) overflows to inf for a subnormal rho
        with pytest.raises(ValueError, match=r"^rho = 1e-320 is too small: the noise scale"):
            gaussian_sigma(0.02, 1e-320)
        # a finite 1 / (2 rho) whose product with the sensitivity overflows
        with pytest.raises(ValueError, match=r"^rho = 1e-20 is too small"):
            gaussian_sigma(1e300, 1e-20)
        assert math.isfinite(gaussian_sigma(0.02, 1e-300))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_sigma(-1.0, 1e-3)


class TestPerturbMatrix:
    def test_zero_sigma_is_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        out = perturb_matrix(m, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, m)
        assert out is not m

    def test_draws_come_only_from_given_stream(self):
        m = np.zeros((3, 3))
        a = perturb_matrix(m, 2.0, np.random.default_rng(42))
        b = perturb_matrix(m, 2.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [1e-320, 1e-300, 0.25, 3.0, 1e300])
    @pytest.mark.parametrize("shape", [(1, 1), (15, 3), (800, 50), (0, 4)])
    def test_same_bits_as_the_sum_of_a_normal_draw(self, shape, sigma):
        # signed zeros in m, and sigma = 1e-320 rounds some products to -0.0
        for seed in range(5):
            m = np.random.default_rng(100 + seed).standard_normal(shape)
            m.flat[::3] = -0.0
            want = m + np.random.default_rng(seed).normal(0.0, sigma, size=m.shape)
            got = perturb_matrix(m, sigma, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    def test_noise_moments(self):
        sigma = 0.7
        m = np.zeros((1000, 1000))
        noise = perturb_matrix(m, sigma, np.random.default_rng(7)) - m
        assert abs(noise.mean()) < 4 * sigma / 1000
        assert abs(noise.std() / sigma - 1.0) < 0.02


def _both_paths(m, sigma, make_rng, without_library):
    """perturb_matrix through the compiled kernel and through numpy, each
    from a fresh stream: (compiled out, numpy out, the two streams)."""
    rng, ref = make_rng(), make_rng()
    got = perturb_matrix(m, sigma, rng)
    with without_library():
        want = perturb_matrix(m, sigma, ref)
    return got, want, rng, ref


def _same_state(a, b):
    """Whether two bit generator states (dicts that may hold arrays) are equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _same(got, want, rng, ref):
    assert got.shape == want.shape and got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)


@pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
class TestCompiledNoise:
    """``gaussian_perturb`` against the numpy lines it replaces: the same
    value bits and the stream left in the same state."""

    # the largest |z| the ziggurat's rectangles and wedges give; beyond it
    # only the tail branch draws
    TAIL = 3.6541528853610088

    @pytest.mark.parametrize("sigma", [1.0, 0.37, 1e-320, 1e300])
    def test_a_million_draws_match_numpy(self, sigma, without_library):
        for seed in range(3):
            m = np.random.default_rng(50 + seed).standard_normal((1000, 1000))
            m.flat[::7] = -0.0
            _same(*_both_paths(m, sigma, lambda: np.random.default_rng(seed), without_library))

    def test_the_tail_branch_is_drawn(self, without_library):
        got, want, rng, ref = _both_paths(
            np.zeros(1_000_000), 1.0, lambda: np.random.default_rng(3), without_library
        )
        _same(got, want, rng, ref)
        # about 260 of a million standard normals lie beyond the edge
        assert np.count_nonzero(np.abs(got) > self.TAIL) > 100

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                                      np.random.Philox, np.random.SFC64])
    def test_every_bit_generator(self, bits, without_library):
        # the kernel draws through the bit generator's own functions
        m = np.zeros((300, 200))
        _same(*_both_paths(m, 2.0, lambda: np.random.Generator(bits(11)), without_library))

    @pytest.mark.parametrize("layout", ["fortran", "sliced", "transposed", "empty", "scalar",
                                        "integer", "signed zeros"])
    def test_any_layout_draws_in_c_order(self, layout, without_library):
        base = np.random.default_rng(5).standard_normal((40, 30))
        m = {
            "fortran": np.asfortranarray(base),
            "sliced": base[::3, 1::2],
            "transposed": base.T,
            "empty": np.zeros((0, 7)),
            "scalar": np.float64(-0.0),
            "integer": np.arange(12).reshape(3, 4),
            "signed zeros": np.where(base > 0, -0.0, 0.0),
        }[layout]
        before = np.array(m, copy=True)
        _same(*_both_paths(m, 0.5, lambda: np.random.default_rng(8), without_library))
        assert np.array_equal(m, before)

    def test_zero_sigma_draws_nothing(self, without_library):
        m = np.asfortranarray(np.random.default_rng(6).standard_normal((20, 10)))
        fresh = np.random.default_rng(9).bit_generator.state
        got, want, rng, ref = _both_paths(m, 0.0, lambda: np.random.default_rng(9),
                                          without_library)
        _same(got, want, rng, ref)
        assert _same_state(rng.bit_generator.state, fresh)
        assert np.array_equal(got, m) and not np.shares_memory(got, m)

    def test_draws_hold_the_stream_lock(self):
        rng = np.random.default_rng(4)
        with ThreadPoolExecutor(1) as pool:
            with rng.bit_generator.lock:
                pending = pool.submit(perturb_matrix, np.zeros(1000), 1.0, rng)
                # the draw waits for the lock this thread holds
                time.sleep(0.2)
                assert not pending.done()
            assert pending.result(timeout=30).shape == (1000,)

class TestComposition:
    def test_serial_sum(self):
        assert compose_serial([0.001, 0.001]) == pytest.approx(0.002, rel=1e-15)
        assert compose_serial([]) == 0.0

    def test_serial_two_matrices_over_epochs(self):
        epochs, rho = 20, 1e-3
        assert compose_serial([rho] * (2 * epochs)) == pytest.approx(
            2 * epochs * rho, rel=1e-12
        )

    def test_serial_rejects_negative(self):
        with pytest.raises(ValueError):
            compose_serial([0.1, -0.1])

    def test_parallel_across_sites_is_the_maximum(self):
        # disjoint sites compose in parallel: the total is the largest
        # per-site serial sum, not their mean (which would give 0.002)
        acc = PrivacyAccountant(n_sites=2, delta=1e-4)
        acc.record(1, 0, "B", 0.001, 0.1, 0.04)
        acc.record(1, 1, "B", 0.003, 0.1, 0.04)
        assert acc.rho_total == 0.003
        for epoch in (2, 3):
            acc.record(epoch, 0, "B", 0.001, 0.1, 0.04)
            acc.record(epoch, 0, "C", 0.001, 0.1, 0.04)
        # site 0 now leads with its serial sum of five releases
        assert acc.rho_total == compose_serial([0.001] * 5)


class TestConversions:
    def test_zero_rho_is_perfect_privacy(self):
        assert zcdp_to_dp(0.0, 1e-4) == 0.0
        assert zcdp_to_dp_approx(0.0, 1e-4) == 0.0

    def test_frozen_values(self):
        # rho + sqrt(4 rho ln(1/delta)), evaluated independently
        assert zcdp_to_dp(0.04, 1e-4) == pytest.approx(1.253941703508117, abs=1e-9)
        assert zcdp_to_dp(0.5, 1e-6) == pytest.approx(5.756521769756932, abs=1e-9)

    def test_monotone_in_rho_and_delta(self):
        rhos = [1e-4, 1e-3, 1e-2, 0.1, 1.0]
        for small, large in zip(rhos, rhos[1:]):
            assert zcdp_to_dp(small, 1e-4) < zcdp_to_dp(large, 1e-4)
        deltas = [1e-8, 1e-6, 1e-4, 1e-2]
        for small, large in zip(deltas, deltas[1:]):
            assert zcdp_to_dp(0.01, small) > zcdp_to_dp(0.01, large)

    def test_exact_exceeds_approx_by_exactly_rho(self):
        for rho in (1e-4, 1e-3, 0.04, 0.5, 2.0):
            for delta in (1e-6, 1e-4, 1e-2):
                gap = zcdp_to_dp(rho, delta) - zcdp_to_dp_approx(rho, delta)
                assert gap == pytest.approx(rho, rel=1e-9)

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                zcdp_to_dp(0.1, delta)


class TestRhoForTarget:
    def test_reported_configuration(self):
        # epsilon 1.2, delta 1e-4, 20 epochs lands at roughly 1e-3 per matrix
        rho = rho_for_target(1.2, 1e-4, 20)
        assert rho == pytest.approx(9.771625842823165e-4, abs=1e-12)

    def test_doubling_epochs_halves_rho(self):
        assert rho_for_target(1.0, 1e-4, 40) == pytest.approx(
            rho_for_target(1.0, 1e-4, 20) / 2, rel=1e-12
        )

    def test_round_trip_through_approximate_conversion(self):
        for eps in (0.5, 1.2, 1.9):
            for delta in (1e-4, 1e-6):
                for epochs in (10, 20, 50):
                    rho = rho_for_target(eps, delta, epochs)
                    total = compose_serial([rho] * (2 * epochs))
                    assert zcdp_to_dp_approx(total, delta) == pytest.approx(
                        eps, abs=1e-12
                    )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rho_for_target(0.0, 1e-4, 10)
        with pytest.raises(ValueError):
            rho_for_target(1.0, 1e-4, 0)


class TestPrivacyParams:
    def test_defaults(self):
        p = PrivacyParams()
        assert p.rho == 1e-3
        assert p.delta == 1e-4

    def test_infinite_rho_means_no_noise(self):
        assert gaussian_sigma(1.0, PrivacyParams(rho=math.inf).rho) == 0.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PrivacyParams(rho=0.0)
        with pytest.raises(ValueError):
            PrivacyParams(delta=1.0)


def _fill(accountant, epochs, n_sites, rho):
    for epoch in range(1, epochs + 1):
        for site in range(n_sites):
            for tag in ("B", "C"):
                accountant.record(epoch, site, tag, rho, 0.1, 0.04)


def _replay(accountant):
    """The total recomputed from the ledger alone: each site's releases
    composed serially, then the maximum over sites."""
    return max(
        compose_serial(e.rho for e in accountant.ledger if e.site_id == t)
        for t in range(accountant.n_sites)
    )


class TestPrivacyAccountant:
    @pytest.mark.parametrize("n_sites", [1, 3, 5])
    def test_total_is_two_e_rho_for_any_site_count(self, n_sites):
        # dyadic rho makes every partial sum exact
        rho = 2.0**-10
        epochs = 8
        acc = PrivacyAccountant(n_sites=n_sites, delta=1e-4)
        _fill(acc, epochs, n_sites, rho)
        assert acc.rho_total == 2 * epochs * rho

    def test_total_with_decimal_rho(self):
        acc = PrivacyAccountant(n_sites=5, delta=1e-4)
        _fill(acc, 20, 5, 1e-3)
        assert acc.rho_total == pytest.approx(2 * 20 * 1e-3, rel=1e-12)

    def test_replay_reproduces_stored_total(self):
        acc = PrivacyAccountant(n_sites=4, delta=1e-4)
        _fill(acc, 7, 4, 1e-3)
        assert acc.rho_total == _replay(acc)

    def test_ledger_order_independent_of_arrival(self):
        records = [
            (epoch, site, tag)
            for epoch in (1, 2, 3)
            for site in (0, 1)
            for tag in ("B", "C")
        ]
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        a = PrivacyAccountant(n_sites=2, delta=1e-4)
        b = PrivacyAccountant(n_sites=2, delta=1e-4)
        for epoch, site, tag in records:
            a.record(epoch, site, tag, 1e-3, 0.1, 0.04)
        for epoch, site, tag in shuffled:
            b.record(epoch, site, tag, 1e-3, 0.1, 0.04)
        assert a.ledger == b.ledger
        assert [(e.epoch, e.site_id, e.matrix_tag) for e in a.ledger] == records

    def test_concurrent_appends_serialize(self):
        acc = PrivacyAccountant(n_sites=8, delta=1e-4)

        def work(site):
            for epoch in range(1, 51):
                acc.record(epoch, site, "B", 1e-3, 0.1, 0.04)
                acc.record(epoch, site, "C", 1e-3, 0.1, 0.04)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(8)))
        assert len(acc.ledger) == 8 * 50 * 2
        assert acc.rho_total == pytest.approx(2 * 50 * 1e-3, rel=1e-9)
        assert acc.rho_total == _replay(acc)

    def test_epsilon_pair(self):
        acc = PrivacyAccountant(n_sites=1, delta=1e-4)
        _fill(acc, 20, 1, 1e-3)
        exact, approx = acc.epsilon()
        assert exact == pytest.approx(zcdp_to_dp(0.04, 1e-4), rel=1e-9)
        assert approx == pytest.approx(zcdp_to_dp_approx(0.04, 1e-4), rel=1e-9)

    def test_rejects_unknown_site(self):
        acc = PrivacyAccountant(n_sites=2, delta=1e-4)
        with pytest.raises(ValueError):
            acc.record(1, 2, "B", 1e-3, 0.1, 0.04)
