"""Site solver: entry-wise SGD, the grouped soft-threshold, and objectives."""

import math

import numpy as np
import pytest

from fedcp.errors import DimensionError, NumericOverflowError
from fedcp.solver import (
    SiteState,
    SolverParams,
    beta_lipschitz,
    entry_gradients,
    init_site_state,
    prox_l21,
    run_local_epoch,
)
from fedcp.federation import pooled_rmse
from fedcp.tensor import SparseTensorCOO


def _state(entries, dims, a, b, c, seed=0, site_id=0):
    tensor = SparseTensorCOO(dims, [e[:3] for e in entries], [e[3] for e in entries])
    return SiteState(
        tensor=tensor,
        A=np.array(a, dtype=float),
        B=np.array(b, dtype=float),
        C=np.array(c, dtype=float),
        rng_seed=seed,
        site_id=site_id,
    )


class TestSgdEntryUpdate:
    def test_stationary_point(self):
        state = _state([(0, 0, 0, 1.0)], (1, 1, 1), [[1.0]], [[1.0]], [[1.0]])
        params = SolverParams(eta=0.3, gamma=2.0, mu=0.0, tau=1, clip=math.inf)
        run_local_epoch(state, (np.array([[1.0]]), np.array([[1.0]])), params)
        assert state.A.tolist() == [[1.0]]
        assert state.B.tolist() == [[1.0]]
        assert state.C.tolist() == [[1.0]]

    def test_unit_rows_target_two(self):
        state = _state([(0, 0, 0, 2.0)], (1, 1, 1), [[1.0]], [[1.0]], [[1.0]])
        params = SolverParams(eta=0.1, gamma=0.0, mu=0.0, tau=1, clip=math.inf)
        run_local_epoch(state, (np.array([[0.0]]), np.array([[0.0]])), params)
        # residual -1; each row moves by eta * 1 using pre-update values
        assert state.A.ravel().tolist() == pytest.approx([1.1], abs=1e-15)
        assert state.B.ravel().tolist() == pytest.approx([1.1], abs=1e-15)
        assert state.C.ravel().tolist() == pytest.approx([1.1], abs=1e-15)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            r = int(rng.integers(1, 4))
            a, b, c, b_hat, c_hat = (rng.uniform(-1.5, 1.5, r) for _ in range(5))
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
                fd = np.zeros(r)
                for d in range(r):
                    step = np.zeros(r)
                    step[d] = h
                    if which == "a":
                        fd[d] = (loss(a + step, b, c) - loss(a - step, b, c)) / (2 * h)
                    elif which == "b":
                        fd[d] = (loss(a, b + step, c) - loss(a, b - step, c)) / (2 * h)
                    else:
                        fd[d] = (loss(a, b, c + step) - loss(a, b, c - step)) / (2 * h)
                rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-9)
                worst = max(worst, rel)
        assert worst < 1e-6

    def test_clip_bounds_residual_gradient(self):
        r = np.array([10.0, 0.0])
        bc = np.array([1.0, 0.0])
        ga, _, _ = entry_gradients(
            r, bc, np.array([1.0, 1.0]), 0.0, np.zeros(2), np.zeros(2), 0.0, 1.0
        )
        assert np.linalg.norm(ga) == pytest.approx(1.0, abs=1e-12)

    def test_anchor_term_escapes_clipping(self):
        # residual part clipped to <= 1, anchor pull added on top
        a = np.array([10.0])
        b = np.array([1.0])
        c = np.array([1.0])
        b_hat = np.array([-4.0])
        _, gb, _ = entry_gradients(a, b, c, 0.0, b_hat, np.array([1.0]), 2.0, 1.0)
        assert gb[0] == pytest.approx(1.0 + 2.0 * 5.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_names_row(self):
        # the error names the rows i, j, k of the entry whose residual overflowed
        state = _state(
            [(1, 0, 2, 1.0)], (2, 1, 3), [[1.0], [1e300]], [[1e300]], [[1.0], [1.0], [1.0]]
        )
        params = SolverParams(eta=10.0, gamma=0.0, mu=0.0, tau=1, clip=math.inf)
        anchors = (np.zeros((1, 1)), np.zeros((3, 1)))
        with pytest.raises(NumericOverflowError, match=r"at entry \(1, 0, 2\)"):
            run_local_epoch(state, anchors, params)


class TestProxL21:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 3))
        assert np.array_equal(prox_l21(a, 0.0), a)

    def test_column_shrinks_by_threshold(self):
        a = np.array([[3.0], [4.0]])
        assert prox_l21(a, 1.0).ravel().tolist() == pytest.approx([2.4, 3.2], abs=1e-12)

    def test_small_column_becomes_exact_zero(self):
        a = np.array([[0.3], [0.4]])
        out = prox_l21(a, 1.0)
        assert out.ravel().tolist() == [0.0, 0.0]

    def test_zero_column_stays_zero(self):
        a = np.zeros((3, 2))
        assert np.array_equal(prox_l21(a, 0.5), a)

    def test_is_exact_minimizer_of_shrinkage_objective(self):
        # prox output must beat 10,000 random perturbations and match a 1-D
        # line search along the column direction
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            col = rng.standard_normal(n) * float(rng.uniform(0.2, 3.0))
            threshold = float(rng.uniform(0.0, 2.0))

            def objective(theta):
                return 0.5 * float(np.sum((theta - col) ** 2)) + threshold * float(
                    np.linalg.norm(theta)
                )

            out = prox_l21(col.reshape(-1, 1), threshold).ravel()
            base = objective(out)
            perturbed = out[None, :] + rng.standard_normal((200, n)) * 0.1
            values = 0.5 * np.sum((perturbed - col) ** 2, axis=1) + threshold * np.linalg.norm(
                perturbed, axis=1
            )
            assert base <= values.min() + 1e-12

            norm = np.linalg.norm(col)
            scales = np.linspace(0.0, 1.5, 20001)
            line = 0.5 * (scales * norm - norm) ** 2 + threshold * scales * norm
            assert base <= line.min() + 1e-6

    def test_nonexpansive_columnwise(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            t = float(rng.uniform(0.0, 2.0))
            pu = prox_l21(u.reshape(-1, 1), t).ravel()
            pv = prox_l21(v.reshape(-1, 1), t).ravel()
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            prox_l21(np.ones((2, 2)), -0.5)
        with pytest.raises(ValueError):
            prox_l21(np.ones((2, 2)), math.nan)


def _exact_rank_one_state(seed=0):
    # 3x2x2 tensor that a rank-1 model fits exactly
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 0.5])
    c = np.array([2.0, 1.0])
    entries = [
        (i, j, k, float(a[i] * b[j] * c[k]))
        for i in range(3)
        for j in range(2)
        for k in range(2)
    ]
    return _state(entries, (3, 2, 2), [[0.9], [1.8], [3.3]], [[1.1], [0.4]], [[1.9], [1.2]], seed=seed)


class TestRunLocalEpoch:
    def test_empty_shard_leaves_factors_unchanged(self):
        tensor = SparseTensorCOO((2, 2, 2), np.empty((0, 3), dtype=np.int64), np.empty(0))
        state = SiteState(
            tensor=tensor,
            A=np.ones((2, 2)),
            B=np.ones((2, 2)),
            C=np.ones((2, 2)),
            rng_seed=5,
            site_id=0,
        )
        anchors = (np.zeros((2, 2)), np.zeros((2, 2)))
        run_local_epoch(state, anchors, SolverParams(eta=0.1, gamma=3.0, mu=0.0, tau=4))
        assert np.array_equal(state.A, np.ones((2, 2)))
        assert np.array_equal(state.B, np.ones((2, 2)))
        assert np.array_equal(state.C, np.ones((2, 2)))

    def test_empty_shard_with_mu_still_keeps_features(self):
        # the prox step may shrink A, but B and C have nothing to move them
        tensor = SparseTensorCOO((2, 2, 2), np.empty((0, 3), dtype=np.int64), np.empty(0))
        state = SiteState(
            tensor=tensor,
            A=np.ones((2, 2)),
            B=np.ones((2, 2)),
            C=np.ones((2, 2)),
            rng_seed=5,
            site_id=0,
        )
        anchors = (state.B.copy(), state.C.copy())
        run_local_epoch(state, anchors, SolverParams(eta=0.1, gamma=3.0, mu=0.5, tau=2))
        assert np.array_equal(state.B, np.ones((2, 2)))
        assert np.array_equal(state.C, np.ones((2, 2)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_same_seed_is_bit_deterministic(self):
        params = SolverParams(eta=0.05, gamma=1.0, mu=0.2, tau=3)
        anchors = (np.full((2, 1), 0.5), np.full((2, 1), 0.5))
        s1 = _exact_rank_one_state(seed=77)
        s2 = _exact_rank_one_state(seed=77)
        for _ in range(5):
            run_local_epoch(s1, anchors, params)
            run_local_epoch(s2, anchors, params)
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(s1.B, s2.B)
        assert np.array_equal(s1.C, s2.C)

    def test_inline_loop_matches_per_entry_api(self):
        # one pass must equal, bit for bit, rows - eta * entry_gradients(...)
        # at the pre-update rows followed by the prox step; rank 3 with both
        # penalties on and a clip that fires on most entries
        rng = np.random.default_rng(8)
        entries = [
            (i, j, k, float(rng.uniform(0.5, 3.0)))
            for i in range(5)
            for j in range(4)
            for k in range(3)
            if rng.random() < 0.6
        ]
        tensor = SparseTensorCOO((5, 4, 3), [e[:3] for e in entries], [e[3] for e in entries])
        init = (rng.random((5, 3)), rng.random((4, 3)), rng.random((3, 3)))
        fast = SiteState(tensor, *(m.copy() for m in init), rng_seed=31, site_id=0)
        slow = SiteState(tensor, *(m.copy() for m in init), rng_seed=31, site_id=0)
        params = SolverParams(eta=0.05, gamma=2.0, mu=0.3, tau=2, clip=0.2)
        b_hat, c_hat = rng.random((4, 3)), rng.random((3, 3))
        run_local_epoch(fast, (b_hat, c_hat), params)
        clipped = 0
        for _ in range(params.tau):
            order = slow.shuffle_rng.permutation(tensor.nnz)
            for n in order:
                i, j, k = (int(v) for v in tensor.coords[n])
                a, b, c = slow.A[i].copy(), slow.B[j].copy(), slow.C[k].copy()
                value = float(tensor.values[n])
                grads = entry_gradients(
                    a, b, c, value, b_hat[j], c_hat[k], params.gamma, params.clip
                )
                free = entry_gradients(
                    a, b, c, value, b_hat[j], c_hat[k], params.gamma, math.inf
                )
                clipped += not np.array_equal(grads[0], free[0])
                slow.A[i] = a - params.eta * grads[0]
                slow.B[j] = b - params.eta * grads[1]
                slow.C[k] = c - params.eta * grads[2]
            slow.A = prox_l21(slow.A, params.eta * params.mu)
        assert clipped > 0
        assert np.array_equal(fast.A, slow.A)
        assert np.array_equal(fast.B, slow.B)
        assert np.array_equal(fast.C, slow.C)

    def test_equal_shards_and_seeds_give_equal_trajectories(self):
        # site_id must not leak into the site's own randomness
        tensor = _exact_rank_one_state().tensor
        s1 = init_site_state(tensor, 2, seed=123, site_id=0)
        s2 = init_site_state(tensor, 2, seed=123, site_id=5)
        params = SolverParams(eta=0.05, gamma=0.5, mu=0.1, tau=2)
        anchors = (np.zeros((2, 2)), np.zeros((2, 2)))
        for _ in range(4):
            run_local_epoch(s1, anchors, params)
            run_local_epoch(s2, anchors, params)
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(s1.B, s2.B)
        assert np.array_equal(s1.C, s2.C)

    def test_objective_decreases_on_exact_low_rank_data(self):
        state = _exact_rank_one_state(seed=3)
        params = SolverParams(eta=0.02, gamma=0.0, mu=0.0, tau=1, clip=math.inf)
        anchors = (np.zeros((2, 1)), np.zeros((2, 1)))
        beta = max(
            beta_lipschitz(state.A, state.C, 0.0),
            beta_lipschitz(state.A, state.B, 0.0),
        )
        assert params.eta < 2.0 / beta
        # with gamma = mu = 0 the site objective is 0.5 * nnz * rmse^2
        start = pooled_rmse([state])
        for _ in range(50):
            run_local_epoch(state, anchors, params)
        assert pooled_rmse([state]) < start

    def test_anchor_shape_mismatch(self):
        state = _exact_rank_one_state()
        with pytest.raises(DimensionError):
            run_local_epoch(state, (np.zeros((3, 1)), np.zeros((2, 1))), SolverParams())

    def test_warns_when_step_size_exceeds_stability_bound(self):
        state = _exact_rank_one_state()
        params = SolverParams(eta=10.0, gamma=0.0, mu=0.0, tau=1, clip=1.0)
        with pytest.warns(RuntimeWarning, match="stability"):
            run_local_epoch(state, (np.zeros((2, 1)), np.zeros((2, 1))), params)

    def test_zero_column_count_nondecreasing_in_mu(self):
        rng = np.random.default_rng(15)
        a = rng.random((8, 3))
        b = rng.random((5, 3))
        c = rng.random((6, 3))
        entries = []
        for i in range(8):
            for j in range(5):
                for k in range(6):
                    if rng.random() < 0.4:
                        entries.append((i, j, k, float(a[i] @ (b[j] * c[k]))))
        tensor = SparseTensorCOO((8, 5, 6), [e[:3] for e in entries], [e[3] for e in entries])
        init = (rng.random((8, 3)), rng.random((5, 3)), rng.random((6, 3)))
        counts = []
        for mu in (0.0, 0.5, 2.0, 8.0, 32.0):
            state = SiteState(tensor, init[0].copy(), init[1].copy(), init[2].copy(), 9, 0)
            params = SolverParams(eta=0.02, gamma=0.0, mu=mu, tau=1)
            anchors = (np.zeros((5, 3)), np.zeros((6, 3)))
            for _ in range(30):
                run_local_epoch(state, anchors, params)
            counts.append(int(np.sum(np.linalg.norm(state.A, axis=0) == 0.0)))
        assert counts == sorted(counts)


class TestProxThreshold:
    def test_threshold_is_eta_times_mu(self):
        # with no entries a pass is the prox step alone; columns of norm 0.5
        # and sqrt(5) both survive eta * mu = 0.4, and neither would survive mu = 4
        tensor = SparseTensorCOO((3, 2, 2), np.zeros((0, 3), dtype=np.int64), [])
        a = np.array([[0.3, 2.0], [0.4, 0.0], [0.0, 1.0]])
        state = SiteState(tensor, a.copy(), np.ones((2, 2)), np.ones((2, 2)), 0, 0)
        params = SolverParams(eta=0.1, gamma=0.0, mu=4.0)
        run_local_epoch(state, (np.ones((2, 2)), np.ones((2, 2))), params)
        assert np.array_equal(state.A, prox_l21(a, 0.1 * 4.0))
        assert np.count_nonzero(state.A) == 4


class TestBetaLipschitz:
    def test_scalar_case(self):
        assert beta_lipschitz(np.array([[1.0]]), np.array([[1.0]]), 0.0) == 1.0

    def test_scalar_with_penalty(self):
        assert beta_lipschitz(np.array([[1.0]]), np.array([[1.0]]), 5.0) == 6.0

    def test_zero_factors_no_penalty(self):
        assert beta_lipschitz(np.zeros((3, 2)), np.zeros((4, 2)), 0.0) == 0.0

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            beta_lipschitz(np.ones((2, 1)), np.ones((2, 2)), 0.0)


class TestSiteStateValidation:
    def test_rejects_mismatched_factor_rows(self):
        tensor = SparseTensorCOO((2, 2, 2), [(0, 0, 0)], [1.0])
        with pytest.raises(DimensionError):
            SiteState(tensor, np.ones((3, 2)), np.ones((2, 2)), np.ones((2, 2)), 0, 0)

    def test_rejects_mixed_ranks(self):
        tensor = SparseTensorCOO((2, 2, 2), [(0, 0, 0)], [1.0])
        with pytest.raises(DimensionError):
            SiteState(tensor, np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)), 0, 0)


class TestSolverParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": -1.0},
            {"gamma": -0.1},
            {"mu": -0.1},
            {"tau": 0},
            {"clip": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverParams(**kwargs)
