"""Site solver: entry-wise SGD, its compiled round, the grouped soft-threshold,
and objectives."""

import ctypes
import math
import re
import shutil
import subprocess
from contextlib import nullcontext

import numpy as np
import pytest

from fedcp import _native, solver
from fedcp.data import read_coo, write_coo, write_factors
from fedcp.errors import DimensionError, NumericOverflowError
from fedcp.solver import (
    RoundSums,
    SiteState,
    SolverParams,
    beta_lipschitz,
    entry_gradients,
    init_site_state,
    prox_l21,
    run_local_epoch,
)
from fedcp.federation import pooled_rmse
from fedcp.tensor import FactorizationResult, SparseTensorCOO, rmse


def _warns_step_size():
    """The step-size check's warning, for a test whose factors give some
    entry a step curvature above 2/eta (each use states the figure)."""
    return pytest.warns(RuntimeWarning, match="2/beta stability bound")


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
        # the state advances in place; the round's sums are returned
        sums = run_local_epoch(state, (np.array([[1.0]]), np.array([[1.0]])), params)
        assert sums == RoundSums(sse=0.0, changes=((1.0, 0.0), (1.0, 0.0)), clipped=0)
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

    def test_overflow_names_row(self):
        # the error names the rows i, j, k of the entry whose residual overflowed
        state = _state(
            [(1, 0, 2, 1.0)], (2, 1, 3), [[1.0], [1e300]], [[1e300]], [[1.0], [1.0], [1.0]]
        )
        params = SolverParams(eta=10.0, gamma=0.0, mu=0.0, tau=1, clip=math.inf)
        anchors = (np.zeros((1, 1)), np.zeros((3, 1)))
        # the entry's curvatures are 1e600 and more, inf in floats
        with _warns_step_size(), pytest.raises(NumericOverflowError, match=r"at entry \(1, 0, 2\)"):
            run_local_epoch(state, anchors, params)


class TestProxL21:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 3))
        # two columns whose norm reads 0: signed zeros, and squares that underflow
        a[:, 1] = [-0.0, 0.0, -0.0, -0.0]
        a[:, 2] = [1e-170, -2e-170, 3e-170, -0.0]
        out = prox_l21(a, 0.0)
        assert out.tobytes() == a.tobytes()
        assert not np.shares_memory(out, a)

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

    def test_same_seed_is_bit_deterministic(self):
        params = SolverParams(eta=0.05, gamma=1.0, mu=0.2, tau=3)
        anchors = (np.full((2, 1), 0.5), np.full((2, 1), 0.5))
        s1 = _exact_rank_one_state(seed=77)
        s2 = _exact_rank_one_state(seed=77)
        # an entry's step curvature reaches 40.3 against 2/eta = 40
        with _warns_step_size():
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
        sums = run_local_epoch(fast, (b_hat, c_hat), params)
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
                clipped += sum(not np.array_equal(g, f) for g, f in zip(grads, free))
                slow.A[i] = a - params.eta * np.asarray(grads[0])
                slow.B[j] = b - params.eta * np.asarray(grads[1])
                slow.C[k] = c - params.eta * np.asarray(grads[2])
            slow.A = prox_l21(slow.A, params.eta * params.mu)
        assert clipped > 0
        assert sums.clipped == clipped
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
        beta = beta_lipschitz(state.A, state.B, state.C, 0.0)
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


def _random_shard(seed, dims, rank, density):
    rng = np.random.default_rng(seed)
    coords = np.argwhere(rng.random(dims) < density)
    tensor = SparseTensorCOO(dims, coords, rng.uniform(0.5, 3.0, len(coords)))
    factors = tuple(rng.random((d, rank)) for d in dims)
    anchors = (rng.random((dims[1], rank)), rng.random((dims[2], rank)))
    return tensor, factors, anchors


def _run_both_kernels(without_library, tensor, factors, anchors, params, epochs=1):
    """(error message or None, A, B, C, the last round's sums) after the
    compiled and then the Python round, each run from copies of ``factors``
    with one seed."""
    outcomes = []
    for kernels in (nullcontext, without_library):
        state = SiteState(tensor, *(m.copy() for m in factors), rng_seed=17, site_id=0)
        sums = error = None
        with kernels():
            try:
                for _ in range(epochs):
                    sums = run_local_epoch(state, anchors, params)
            except NumericOverflowError as exc:
                error = str(exc)
        outcomes.append((error, state.A, state.B, state.C, sums))
    return outcomes


def _same_outcome(x, y):
    return (
        x[0] == y[0]
        and all(np.array_equal(p, q) for p, q in zip(x[1:4], y[1:4]))
        and x[4:] == y[4:]
    )


@pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
class TestCompiledPass:
    """The compiled round must reproduce the Python round bit for bit: the
    factors, the error and the sums it returns."""

    @pytest.mark.parametrize("gamma", [0.0, 2.5])
    @pytest.mark.parametrize("clip", [0.05, math.inf])
    # the heads and tails of the vectorised loops
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 50, 64])
    def test_matches_python_pass(self, without_library, rank, clip, gamma):
        tensor, factors, anchors = _random_shard(rank, (12, 7, 9), rank, 0.3)
        if math.isfinite(clip):
            # the clip fires: some residual gradient at the start exceeds it
            i, j, k = tensor.coords.T
            bc = factors[1][j] * factors[2][k]
            resid = np.sum(factors[0][i] * bc, axis=1) - tensor.values
            assert np.any(np.abs(resid) * np.linalg.norm(bc, axis=1) > clip)
        for mu in (0.3, 0.0):  # the prox step runs at threshold 0 too
            params = SolverParams(eta=0.01, gamma=gamma, mu=mu, tau=3, clip=clip)
            compiled, python = _run_both_kernels(
                without_library, tensor, factors, anchors, params, 2
            )
            assert compiled[0] is None
            assert _same_outcome(compiled, python)
            assert compiled[4].clipped == python[4].clipped
            assert (compiled[4].clipped > 0) == math.isfinite(clip)

    @pytest.mark.parametrize("rank", [1, 2, 3, 5, 50])
    def test_clip_that_fires_for_some_gradients_of_an_entry(self, without_library, rank):
        # a is large, b and c small: ga = resid * (b * c) stays under the
        # clip while gb and gc, which carry a, exceed it
        tensor = SparseTensorCOO((1, 1, 1), [(0, 0, 0)], [-1.0])
        factors = (np.full((1, rank), 4.0), np.full((1, rank), 0.5), np.full((1, rank), 0.5))
        norms = np.sqrt(rank) * (1.0 + rank) * np.array([0.25, 2.0, 2.0])
        params = SolverParams(eta=0.01, gamma=0.5, mu=0.0, tau=1, clip=float(np.mean(norms[:2])))
        # the curvature ||a o c||^2 + gamma is 4 * rank + 0.5: 200.5 at rank 50, 2/eta = 200
        with _warns_step_size() if rank == 50 else nullcontext():
            compiled, python = _run_both_kernels(without_library, tensor, factors, factors[1:], params)
        assert compiled[0] is None
        assert _same_outcome(compiled, python)
        assert compiled[4].clipped == 2

    def test_zero_threshold_keeps_a_column_whose_squares_underflow(self, without_library):
        # with column 0 of B and C zero and no anchor pull, every gradient in
        # column 0 is zero, so no step moves A's column 0, whose norm reads 0
        tensor, factors, anchors = _random_shard(4, (12, 7, 9), 3, 0.3)
        a, b, c = (m.copy() for m in factors)
        a[:, 0] = np.where(np.arange(12) % 2, -1e-170, 2e-170)
        b[:, 0] = c[:, 0] = 0.0
        params = SolverParams(eta=0.01, gamma=0.0, mu=0.0, tau=2, clip=0.05)
        compiled, python = _run_both_kernels(without_library, tensor, (a, b, c), anchors, params)
        assert _same_outcome(compiled, python)
        assert compiled[1][:, 0].tobytes() == a[:, 0].tobytes()

    @pytest.mark.parametrize("clip", [0.05, math.inf])
    @pytest.mark.parametrize("rank", [2, 5, 50])
    # up to, at and past the prefetch distances of 4 rows and 16 entries
    @pytest.mark.parametrize("nnz", [1, 2, 4, 5, 15, 16, 17, 40])
    def test_neighbours_sharing_one_row_of_b(self, without_library, nnz, rank, clip):
        # every entry has j = 0, so each step reads the row of B that the
        # step before it wrote, while the rows ahead are prefetched
        rng = np.random.default_rng(nnz * rank)
        coords = np.column_stack([np.arange(nnz), np.zeros(nnz, int), np.arange(nnz) % 3])
        tensor = SparseTensorCOO((nnz, 1, 3), coords, rng.uniform(0.5, 3.0, nnz))
        factors = tuple(rng.random((d, rank)) for d in tensor.dims)
        anchors = (rng.random((1, rank)), rng.random((3, rank)))
        params = SolverParams(eta=0.02, gamma=1.0, mu=0.2, tau=2, clip=clip)
        compiled, python = _run_both_kernels(without_library, tensor, factors, anchors, params, 2)
        assert compiled[0] is None
        assert _same_outcome(compiled, python)
        assert not np.array_equal(compiled[2], factors[1])

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("tau", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3, 50])
    def test_round_sums_match_the_python_round(self, without_library, rank, tau, mu):
        tensor, factors, anchors = _random_shard(10 + rank, (9, 6, 7), rank, 0.4)
        params = SolverParams(eta=0.02, gamma=1.5, mu=mu, tau=tau, clip=0.1)
        compiled, python = _run_both_kernels(without_library, tensor, factors, anchors, params, 2)
        assert compiled[0] is None
        assert _same_outcome(compiled, python)
        state = SiteState(tensor, compiled[1], compiled[2], compiled[3], rng_seed=0, site_id=0)
        assert math.sqrt(compiled[4].sse / tensor.nnz) == rmse([tensor], [state])

    @pytest.mark.parametrize("rank", [1, 2, 50])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 136, 1000, 4099])
    def test_sums_keep_numpy_order_at_every_length(self, without_library, rank, n):
        # n entries down one mode make the residual sum, the column norms of
        # the prox step and the change sums n or n * rank terms long, across
        # the lengths where numpy's pairwise sum changes shape
        rng = np.random.default_rng(n + rank)
        for dims in ((n, 1, 1), (1, n, 1)):
            coords = np.zeros((n, 3), dtype=np.int64)
            coords[:, dims.index(n)] = np.arange(n)
            tensor = SparseTensorCOO(dims, coords, rng.uniform(-3.0, 3.0, n))
            factors = tuple(rng.uniform(-1.0, 1.0, (d, rank)) for d in dims)
            anchors = (rng.random((dims[1], rank)), rng.random((dims[2], rank)))
            # a threshold near half the smallest column norm, where the last
            # bit of a norm reaches the scaled column
            mu = 50.0 * np.linalg.norm(factors[0], axis=0).min()
            params = SolverParams(eta=0.01, gamma=0.5, mu=mu, tau=1, clip=math.inf)
            compiled, python = _run_both_kernels(without_library, tensor, factors, anchors, params)
            assert compiled[0] is None
            assert _same_outcome(compiled, python)

    def test_empty_shard(self, without_library):
        tensor, factors, anchors = _random_shard(4, (3, 2, 2), 2, 0.0)
        assert tensor.nnz == 0
        params = SolverParams(eta=0.1, gamma=1.0, mu=0.5, tau=3)
        compiled, python = _run_both_kernels(without_library, tensor, factors, anchors, params)
        assert _same_outcome(compiled, python)
        assert compiled[4].sse == 0.0

    def test_dot_product_sums_left_to_right(self, without_library):
        # products [1e16, 1, -1e16, 1] then zeros: left to right the residual
        # is 1 - value = 0 and nothing moves; pairwise order sums them to 0
        # and BLAS to 2 (rank 16), and then every row would move
        a = np.zeros((1, 16))
        a[0, :4] = [1e16, 1.0, -1e16, 1.0]
        tensor = SparseTensorCOO((1, 1, 1), [(0, 0, 0)], [1.0])
        factors = (a, np.ones((1, 16)), np.ones((1, 16)))
        params = SolverParams(eta=0.1, gamma=0.0, mu=0.0, tau=1, clip=math.inf)
        # the curvature ||a o c||^2 is 2e32
        with _warns_step_size():
            outcomes = _run_both_kernels(without_library, tensor, factors, factors[1:], params)
        for outcome in outcomes:
            assert _same_outcome(outcome[:4], (None, *factors))

    def test_non_finite_residual_stops_both_at_the_same_entry(self, without_library):
        # only entry (3, 1, 2) overflows; the entries shuffled before it
        # stay applied and it is not
        tensor, factors, anchors = _random_shard(9, (5, 3, 4), 2, 0.7)
        keep = (tensor.coords[:, 0] != 3) & (tensor.coords[:, 1] != 1)
        coords = np.vstack([tensor.coords[keep], [(3, 1, 2)]])
        tensor = SparseTensorCOO(tensor.dims, coords, np.append(tensor.values[keep], 1.0))
        factors[0][3] = 1e300
        factors[1][1] = 1e300
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1, clip=1.0)
        # the entry's curvature ||a o b||^2 + gamma is 1e1200, inf in floats
        with _warns_step_size():
            compiled, python = _run_both_kernels(without_library, tensor, factors, anchors, params)
        assert compiled[0] == "residual became non-finite at entry (3, 1, 2)"
        assert _same_outcome(compiled, python)
        assert not np.array_equal(compiled[3], factors[2])

    @pytest.mark.parametrize("tau", [1, 3])
    def test_non_finite_row_is_named_by_both_sweeps(self, without_library, tau):
        # the residual stays finite, but the anchor pull of gamma = 1e308
        # sends row 2 of B to -inf in the pass's only entry
        tensor = SparseTensorCOO((2, 3, 2), [(1, 2, 1)], [1.0])
        factors = (np.full((2, 1), 0.5), np.full((3, 1), 2.0), np.full((2, 1), 0.5))
        anchors = (np.zeros((3, 1)), np.full((2, 1), 0.5))
        params = SolverParams(eta=0.5, gamma=1e308, mu=0.1, tau=tau, clip=math.inf)
        # the curvature of the B and C steps is at least gamma = 1e308
        with _warns_step_size():
            compiled, python = _run_both_kernels(without_library, tensor, factors, anchors, params)
        assert compiled[0] == "B row 2 became non-finite"
        assert _same_outcome(compiled, python)


@pytest.fixture(scope="module")
def fresh_build(tmp_path_factory):
    """(directory, library path) of one build into an empty directory, made
    with exactly one compile, for the tests that need a build of their own."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    directory = tmp_path_factory.mktemp("lib")
    # a build of an older source, and a file that is not a build
    for name in ("_sgd-0000000000000000.so", "keep.so"):
        (directory / name).write_bytes(b"")
    compiles = []
    real_run = subprocess.run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            _native.subprocess, "run", lambda *a, **k: compiles.append(a) or real_run(*a, **k)
        )
        path = _native.build(directory)
    assert len(compiles) == 1
    return directory, path


class TestNativeBuild:
    def test_second_build_reuses_the_first(self, fresh_build, monkeypatch):
        directory, first = fresh_build
        stamp = first.stat().st_mtime_ns
        compiles = []
        real_run = subprocess.run
        monkeypatch.setattr(
            _native.subprocess, "run", lambda *a, **k: compiles.append(a) or real_run(*a, **k)
        )
        assert _native.build(directory) == first
        assert compiles == []
        assert first.stat().st_mtime_ns == stamp
        assert sorted(directory.iterdir()) == sorted([first, directory / "keep.so"])

    def test_build_deletes_older_builds_only(self, fresh_build):
        directory, first = fresh_build
        assert first.is_file()
        assert not (directory / "_sgd-0000000000000000.so").exists()
        assert (directory / "keep.so").is_file()

    def test_flags_keep_the_bits(self):
        # the compiled kernels must round like their Python references: no
        # fused multiply-add, no reassociated sum, no host-specific code
        assert "-ffp-contract=off" in _native.FLAGS
        unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                  "-fassociative-math", "-march=native"}
        assert unsafe.isdisjoint(_native.FLAGS)

    def test_source_compiles_without_warnings(self, tmp_path):
        compiler = shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler")
        strict = [*_native.FLAGS, "-Wall", "-Wextra", "-Werror"]
        out = subprocess.run(
            [compiler, *strict, "-o", str(tmp_path / "strict.so"), str(_native.SOURCE), "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    def test_load_declares_every_kernel(self, fresh_build):
        lib = _native.load(fresh_build[0])
        for name, (restype, argtypes) in _native.SIGNATURES.items():
            kernel = getattr(lib, name)
            assert kernel.restype is restype
            assert tuple(kernel.argtypes) == argtypes

    def test_prototypes_match_the_declared_signatures(self):
        # a parameter left in only one of the two places shifts every later
        # ctypes argument without an error
        kinds = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int,
                 "void": None}
        source = _native.SOURCE.read_text()
        for name, (restype, argtypes) in _native.SIGNATURES.items():
            ret, params = re.search(rf"^(\w+) {name}\(([^)]*)\)", source, re.MULTILINE).groups()
            declared = tuple(
                ctypes.c_void_p if "*" in param else kinds[param.split()[-2]]
                for param in params.split(",")
            )
            assert len(declared) == len(argtypes), name
            assert declared == argtypes, name
            assert kinds[ret] is restype, name

    def test_every_exported_function_is_declared(self):
        # a C function that is not static is one the library exports
        source = _native.SOURCE.read_text()
        exported = re.findall(r"^(?!static\b|typedef\b)(?:[A-Za-z_]\w*\s+\**)+(\w+)\(", source,
                              re.MULTILINE)
        assert set(exported) == set(_native.SIGNATURES)
        assert len(exported) == len(set(exported))

    def test_half_written_library_is_never_loaded(self, tmp_path, monkeypatch):
        # a compiler that dies after writing part of its output
        def dying_compiler(argv, **kwargs):
            with open(argv[argv.index("-o") + 1], "wb") as fh:
                fh.write(b"\x7fELF\x02\x01\x01")
            raise subprocess.CalledProcessError(1, argv)

        monkeypatch.setattr(_native.shutil, "which", lambda name: "/bin/sh")
        monkeypatch.setattr(_native.subprocess, "run", dying_compiler)
        assert _native.build(tmp_path) is None
        assert _native.load(tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_without_a_compiler_the_python_pass_runs_with_the_same_bits(
        self, tmp_path, tmp_path_factory, monkeypatch, without_library
    ):
        tensor, factors, anchors = _random_shard(5, (6, 4, 5), 3, 0.5)
        params = SolverParams(eta=0.02, gamma=1.0, mu=0.2, tau=2, clip=0.3)

        def run():
            state = SiteState(tensor, *(m.copy() for m in factors), rng_seed=3, site_id=0)
            run_local_epoch(state, anchors, params)
            # the writers' files, as fedcp generate and fedcp run write them,
            # and the tensor read back, as fedcp run reads it
            write_coo(tensor, files / "t.coo")
            write_factors(FactorizationResult(state.A, state.B, state.C), files / "f.factors")
            written = [(files / name).read_bytes() for name in ("t.coo", "f.factors")]
            back = read_coo(files / "t.coo")
            read = (back.dims, back.coords.tobytes(), back.values.tobytes())
            return (state.A, state.B, state.C), rmse([tensor], [state]), written, read

        files = tmp_path_factory.mktemp("files")
        loaded = run()
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native.load(tmp_path) is None
        assert list(tmp_path.iterdir()) == []
        with without_library():
            python = run()
        assert all(np.array_equal(p, q) for p, q in zip(loaded[0], python[0]))
        assert python[1:] == loaded[1:]
        assert loaded[3] == (tensor.dims, tensor.coords.tobytes(), tensor.values.tobytes())


def _peak(x, y):
    """max over rows x, y of ||x o y||^2."""
    return np.einsum("ir,jr->ij", x * x, y * y).max()


class TestBetaLipschitz:
    def test_scalar_case(self):
        one = np.array([[1.0]])
        assert beta_lipschitz(one, one, one, 0.0) == 1.0

    def test_scalar_with_penalty(self):
        one = np.array([[1.0]])
        assert beta_lipschitz(one, one, one, 5.0) == 6.0

    def test_zero_factors_no_penalty(self):
        assert beta_lipschitz(np.zeros((3, 2)), np.zeros((5, 2)), np.zeros((4, 2)), 0.0) == 0.0

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            beta_lipschitz(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 2)), 0.0)
        with pytest.raises(DimensionError):
            beta_lipschitz(np.ones((2, 2)), np.ones((3, 1)), np.ones((2, 2)), 0.0)
        with pytest.raises(DimensionError):  # a factor without rows
            beta_lipschitz(np.ones((2, 2)), np.ones((0, 2)), np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("rank", [1, 3, 50])
    def test_bounds_the_curvature_of_every_entry(self, rank):
        # every (i, j, k), observed or not: ||b o c||^2 for the step on a,
        # ||a o c||^2 + gamma and ||a o b||^2 + gamma for those on b and c
        rng = np.random.default_rng(rank)
        a = rng.standard_normal((6, rank))
        for b_scale, c_scale in ((1.0, 3.0), (3.0, 1.0)):  # each side the larger once
            b = b_scale * rng.standard_normal((5, rank))
            c = c_scale * rng.standard_normal((7, rank))
            for gamma in (0.0, 2.5):
                exact = max(_peak(b, c), _peak(a, c) + gamma, _peak(a, b) + gamma)
                # at rank 1 the two agree in exact arithmetic: allow their rounding
                assert exact <= beta_lipschitz(a, b, c, gamma) * (1 + 1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_equals_the_curvature_of_a_single_row_at_rank_one(self, gamma):
        # each of the three steps is the steepest in some order of 3, -2, 0.5
        for a, b, c in ((3.0, -2.0, 0.5), (-2.0, 0.5, 3.0), (0.5, 3.0, -2.0)):
            exact = max((b * c) ** 2, (a * c) ** 2 + gamma, (a * b) ** 2 + gamma)
            assert beta_lipschitz([[a]], [[b]], [[c]], gamma) == exact

    @pytest.mark.parametrize("huge", [1e200, 1e300, math.inf])
    def test_zero_factor_next_to_an_overflowing_one_is_never_nan(self, huge):
        # 0 * inf is NaN, and Python's min and max do not order NaN
        for factors in ((0.0, huge, 1.0), (huge, 0.0, 1.0), (1.0, huge, 0.0), (huge, 1.0, 0.0)):
            assert beta_lipschitz(*(np.full((2, 3), v) for v in factors), 0.0) >= 0.0


class TestSiteStateValidation:
    def test_rejects_mismatched_factor_rows(self):
        tensor = SparseTensorCOO((2, 2, 2), [(0, 0, 0)], [1.0])
        with pytest.raises(DimensionError):
            SiteState(tensor, np.ones((3, 2)), np.ones((2, 2)), np.ones((2, 2)), 0, 0)

    def test_rejects_mixed_ranks(self):
        tensor = SparseTensorCOO((2, 2, 2), [(0, 0, 0)], [1.0])
        with pytest.raises(DimensionError):
            SiteState(tensor, np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)), 0, 0)


_LAYOUTS = ["int64", "float32", "fortran", "strided", "read-only"]


def _layout(m, layout):
    """``m`` (integer-valued float64) as a factor the compiled round cannot
    write in place: int64, float32, Fortran order, a strided view, read-only."""
    if layout == "read-only":
        m = m.copy()
        m.setflags(write=False)
        return m
    if layout == "fortran":
        return np.asfortranarray(m)
    if layout == "strided":
        return np.repeat(m, 2, axis=0)[::2]
    return m.astype(layout)


def _no_python_pass(*args):
    raise AssertionError("the Python pass ran with the compiled library loaded")


class TestSiteStateFactors:
    """A site holds writeable C-contiguous float64 factors whatever it is
    given, so every round is the round of the plain float64 state."""

    def _shard(self):
        tensor, factors, anchors = _random_shard(9, (6, 4, 5), 2, 0.5)
        rng = np.random.default_rng(9)
        factors = tuple(rng.integers(0, 2, m.shape).astype(np.float64) for m in factors)
        return tensor, factors, anchors

    def _assert_fit(self, state, factors):
        for m, want in zip((state.A, state.B, state.C), factors):
            assert m.dtype == np.float64
            assert m.flags.c_contiguous and m.flags.writeable
            assert np.array_equal(m, want)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_factors_are_converted(self, layout):
        tensor, factors, _ = self._shard()
        odd = [_layout(m, layout) for m in factors]
        state = SiteState(tensor, *odd, rng_seed=1, site_id=0)
        self._assert_fit(state, factors)
        assert not any(m is o for m, o in zip((state.A, state.B, state.C), odd))

    def test_fitting_factors_are_not_copied(self):
        tensor, factors, _ = self._shard()
        state = SiteState(tensor, *factors, rng_seed=1, site_id=0)
        assert all(m is f for m, f in zip((state.A, state.B, state.C), factors))

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_round_gives_the_bits_of_the_float64_round(
        self, monkeypatch, without_library, kernel, layout
    ):
        if kernel == "compiled":
            if _native.LIBRARY is None:
                pytest.skip("no compiled library loaded")
            monkeypatch.setattr(solver, "_python_pass", _no_python_pass)
        tensor, factors, anchors = self._shard()
        params = SolverParams(eta=0.01, gamma=0.5, mu=0.1, tau=2, clip=0.7)
        with without_library() if kernel == "python" else nullcontext():
            plain = SiteState(tensor, *(m.copy() for m in factors), rng_seed=1, site_id=0)
            plain_sums = run_local_epoch(plain, anchors, params)
            odd = SiteState(tensor, *(_layout(m, layout) for m in factors), rng_seed=1, site_id=0)
            odd_sums = run_local_epoch(odd, anchors, params)
        assert odd_sums == plain_sums
        for m, want in zip((odd.A, odd.B, odd.C), (plain.A, plain.B, plain.C)):
            assert m.tobytes() == want.tobytes()

    def test_an_assigned_factor_is_converted_and_takes_the_compiled_round(self, monkeypatch):
        if _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        tensor, factors, anchors = self._shard()
        params = SolverParams(eta=0.01, gamma=0.5, mu=0.1, tau=2, clip=0.7)
        plain = SiteState(tensor, *(m.copy() for m in factors), rng_seed=1, site_id=0)
        run_local_epoch(plain, anchors, params)
        state = SiteState(tensor, *(m.copy() for m in factors), rng_seed=1, site_id=0)
        state.A = np.asfortranarray(state.A)
        state.B = state.B.astype(np.float32)
        self._assert_fit(state, factors)
        monkeypatch.setattr(solver, "_python_pass", _no_python_pass)
        run_local_epoch(state, anchors, params)
        for m, want in zip((state.A, state.B, state.C), (plain.A, plain.B, plain.C)):
            assert m.tobytes() == want.tobytes()


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
            {"tau": math.inf},
            {"tau": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # every message starts with the field it checks
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} "):
            SolverParams(**kwargs)
