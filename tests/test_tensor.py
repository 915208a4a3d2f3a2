"""Tensor type, CP algebra primitives, and the fit metrics."""

import math

import numpy as np
import pytest

from fedcp.errors import DimensionError
from fedcp.tensor import (
    FactorizationResult,
    SparseTensorCOO,
    factor_weights,
    fms,
    fms_report,
    l21_norm,
    reconstruct_values,
    rmse,
    zero_column_count,
)


def _tensor(dims, entries):
    return SparseTensorCOO.from_entries(dims, entries)


class TestSparseTensorCOO:
    def test_holds_entries(self):
        t = _tensor((2, 2, 2), [(0, 0, 0, 1.5), (1, 1, 1, -2.0)])
        assert t.nnz == 2
        assert list(t.entries()) == [(0, 0, 0, 1.5), (1, 1, 1, -2.0)]

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            _tensor((2, 2, 2), [(2, 0, 0, 1.0)])

    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(ValueError, match="duplicate"):
            _tensor((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, 2.0)])

    def test_rejects_stored_zeros_and_nonfinite(self):
        with pytest.raises(ValueError, match="zero"):
            _tensor((2, 2, 2), [(0, 0, 0, 0.0)])
        with pytest.raises(ValueError, match="finite"):
            _tensor((2, 2, 2), [(0, 0, 0, math.nan)])

    def test_same_entries_ignores_order(self):
        a = _tensor((2, 2, 2), [(0, 0, 0, 1.0), (1, 1, 1, 2.0)])
        b = _tensor((2, 2, 2), [(1, 1, 1, 2.0), (0, 0, 0, 1.0)])
        assert a.same_entries(b)


def _entry(a, b, c, i, j, k):
    return reconstruct_values(a, b, c, np.array([[i, j, k]]))[0]


class TestReconstructEntry:
    def test_rank_one(self):
        a, b, c = np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]])
        assert _entry(a, b, c, 0, 0, 0) == 30.0

    def test_zero_row_annihilates(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        c = np.array([[5.0, 6.0]])
        assert _entry(a, b, c, 0, 0, 0) == 0.0

    def test_rank_two_sum(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        c = np.array([[5.0, 6.0]])
        assert _entry(a, b, c, 0, 0, 0) == 63.0

    def test_linear_in_each_row(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = int(rng.integers(1, 5))
            a = rng.standard_normal((3, r))
            b = rng.standard_normal((4, r))
            c = rng.standard_normal((5, r))
            base = _entry(a, b, c, 1, 2, 3)
            doubled = a.copy()
            doubled[1] *= 2.0
            assert _entry(doubled, b, c, 1, 2, 3) == pytest.approx(2 * base)


class TestRmse:
    def test_exact_fit_is_zero(self):
        t = _tensor((1, 1, 1), [(0, 0, 0, 30.0)])
        site = FactorizationResult([[2.0]], [[3.0]], [[5.0]])
        assert rmse(t, [site]) == 0.0

    def test_zero_factors_hand_sum(self):
        t = _tensor((2, 1, 1), [(0, 0, 0, 4.0), (1, 0, 0, 3.0)])
        site = FactorizationResult(np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        # sqrt((16 + 9) / 2)
        assert rmse(t, [site]) == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_doubling_residuals_doubles_rmse(self):
        entries = [(0, 0, 0, 1.5), (1, 0, 0, -2.5)]
        t1 = _tensor((2, 1, 1), entries)
        t2 = _tensor((2, 1, 1), [(i, j, k, 2 * v) for i, j, k, v in entries])
        site = FactorizationResult(np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert rmse(t2, [site]) == pytest.approx(2 * rmse(t1, [site]), rel=1e-12)

    def test_routes_entries_to_owning_site(self):
        t = _tensor((2, 1, 1), [(0, 0, 0, 6.0), (1, 0, 0, 10.0)])
        site0 = FactorizationResult([[2.0]], [[3.0]], [[1.0]])
        site1 = FactorizationResult([[5.0]], [[2.0]], [[1.0]])
        assert rmse(t, [site0, site1]) == 0.0

    def test_positive_once_any_entry_deviates(self):
        t = _tensor((2, 1, 1), [(0, 0, 0, 6.0), (1, 0, 0, 10.0 + 1e-6)])
        site0 = FactorizationResult([[2.0]], [[3.0]], [[1.0]])
        site1 = FactorizationResult([[5.0]], [[2.0]], [[1.0]])
        assert rmse(t, [site0, site1]) > 0.0

    def test_dimension_mismatch(self):
        t = _tensor((2, 1, 1), [(0, 0, 0, 1.0)])
        short = FactorizationResult([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(DimensionError):
            rmse(t, [short])

    def test_empty_tensor_rejected(self):
        t = SparseTensorCOO((1, 1, 1), np.empty((0, 3), dtype=np.int64), np.empty(0))
        site = FactorizationResult([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            rmse(t, [site])


class TestL21Norm:
    def test_three_four_five(self):
        assert l21_norm([[3.0, 4.0]]) == 5.0

    def test_identity(self):
        assert l21_norm(np.eye(2)) == 2.0

    def test_direct_evaluation(self):
        expected = math.sqrt(5.0) + math.sqrt(8.0)
        assert l21_norm([[1.0, 2.0], [2.0, 2.0]]) == pytest.approx(expected, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.standard_normal((4, 3))
            v = rng.standard_normal((4, 3))
            assert l21_norm(u + v) <= l21_norm(u) + l21_norm(v) + 1e-12


class TestFactorWeights:
    def test_product_of_norms(self):
        a = np.array([[2.0], [0.0]])
        b = np.array([[3.0]])
        c = np.array([[0.0], [5.0], [0.0]])
        assert factor_weights(a, b, c).tolist() == [30.0]

    def test_zero_column_annihilates(self):
        a = np.zeros((2, 1))
        b = np.ones((2, 1))
        c = np.ones((2, 1))
        assert factor_weights(a, b, c).tolist() == [0.0]

    def test_unit_columns(self):
        e = np.array([[1.0], [0.0]])
        assert factor_weights(e, e, e).tolist() == [1.0]

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            factor_weights(np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 1)))

    def test_result_weights_property(self):
        rng = np.random.default_rng(3)
        res = FactorizationResult(
            rng.random((3, 2)), rng.random((4, 2)), rng.random((5, 2))
        )
        expected = (
            np.linalg.norm(res.A, axis=0)
            * np.linalg.norm(res.B, axis=0)
            * np.linalg.norm(res.C, axis=0)
        )
        assert np.allclose(res.weights, expected)
        assert np.all(res.weights >= 0)


def _random_result(rng, dims=(6, 5, 4), rank=3):
    return FactorizationResult(
        rng.standard_normal((dims[0], rank)),
        rng.standard_normal((dims[1], rank)),
        rng.standard_normal((dims[2], rank)),
    )


class TestFms:
    def test_identical_factors_score_one(self):
        rng = np.random.default_rng(4)
        x = _random_result(rng)
        assert fms(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_columns_score_zero(self):
        x = FactorizationResult(np.eye(4)[:, :2], np.eye(4)[:, :2], np.eye(4)[:, :2])
        y = FactorizationResult(np.eye(4)[:, 2:], np.eye(4)[:, 2:], np.eye(4)[:, 2:])
        assert fms(x, y) == 0.0

    def test_one_mode_scaled_by_two(self):
        rng = np.random.default_rng(5)
        x = _random_result(rng)
        y = FactorizationResult(2.0 * x.A, x.B, x.C)
        # cosines stay 1; weight gap |xi - 2 xi| / (2 xi) halves each column score
        assert fms(x, y) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = _random_result(rng)
            y = _random_result(rng)
            assert fms(x, y) == pytest.approx(fms(y, x), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            score = fms(_random_result(rng), _random_result(rng))
            assert -1.0 - 1e-12 <= score <= 1.0 + 1e-12

    def test_invariant_under_simultaneous_column_permutation(self):
        rng = np.random.default_rng(8)
        x = _random_result(rng)
        perm = np.array([2, 0, 1])
        y = FactorizationResult(x.A[:, perm], x.B[:, perm], x.C[:, perm])
        assert fms(x, y) == pytest.approx(1.0, abs=1e-12)
        report = fms_report(x, y)
        # X column r must be matched to the Y column holding the same data
        assert np.array_equal(report.permutation, np.argsort(perm))
        assert np.allclose(report.cosine_products, 1.0)

    def test_zero_column_gets_zero_cosine(self):
        rng = np.random.default_rng(9)
        x = _random_result(rng)
        a = x.A.copy()
        a[:, 1] = 0.0
        y = FactorizationResult(a, x.B, x.C)
        report = fms_report(x, y)
        assert report.score < 1.0
        assert math.isfinite(report.score)

    def test_both_columns_zero_match_perfectly(self):
        a = np.zeros((3, 1))
        x = FactorizationResult(a, np.zeros((2, 1)), np.zeros((2, 1)))
        assert fms(x, x) == 0.0  # cosine 0 convention, no NaN

    def test_rank_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DimensionError):
            fms(_random_result(rng, rank=2), _random_result(rng, rank=3))


def test_zero_column_count():
    m = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
    assert zero_column_count(m) == 1
    assert zero_column_count(np.zeros((2, 3))) == 3
