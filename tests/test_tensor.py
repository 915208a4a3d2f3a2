"""Tensor type, CP algebra primitives, and the fit metrics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fedcp import _native, tensor
from fedcp.errors import DimensionError
from fedcp.tensor import (
    FactorizationResult,
    SparseTensorCOO,
    factor_weights,
    fms,
    fms_report,
    reconstruct_values,
    rmse,
    zero_column_count,
)


def _tensor(dims, entries):
    return SparseTensorCOO(dims, [e[:3] for e in entries], [e[3] for e in entries])


class TestSparseTensorCOO:
    def test_holds_entries(self):
        t = _tensor((2, 2, 2), [(0, 0, 0, 1.5), (1, 1, 1, -2.0)])
        assert t.nnz == 2
        assert t.coords.tolist() == [[0, 0, 0], [1, 1, 1]]
        assert t.values.tolist() == [1.5, -2.0]

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            _tensor((2, 2, 2), [(2, 0, 0, 1.0)])

    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(ValueError, match="duplicate"):
            _tensor((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, 2.0)])
        # the message names the first record that repeats an earlier one
        with pytest.raises(ValueError, match=r"coordinate \(1, 1, 1\)"):
            _tensor((2, 2, 2), [(0, 0, 0, 1.0), (1, 1, 1, 1.0), (1, 1, 1, 2.0), (0, 0, 0, 2.0)])

    def test_rejects_stored_zeros_and_nonfinite(self):
        with pytest.raises(ValueError, match="zero"):
            _tensor((2, 2, 2), [(0, 0, 0, 0.0)])
        with pytest.raises(ValueError, match="finite"):
            _tensor((2, 2, 2), [(0, 0, 0, math.nan)])


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
        assert rmse([t], [site]) == 0.0

    def test_zero_factors_hand_sum(self):
        t = _tensor((2, 1, 1), [(0, 0, 0, 4.0), (1, 0, 0, 3.0)])
        site = FactorizationResult(np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        # sqrt((16 + 9) / 2)
        assert rmse([t], [site]) == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_doubling_residuals_doubles_rmse(self):
        entries = [(0, 0, 0, 1.5), (1, 0, 0, -2.5)]
        t1 = _tensor((2, 1, 1), entries)
        t2 = _tensor((2, 1, 1), [(i, j, k, 2 * v) for i, j, k, v in entries])
        site = FactorizationResult(np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert rmse([t2], [site]) == pytest.approx(2 * rmse([t1], [site]), rel=1e-12)

    def test_routes_entries_to_owning_site(self):
        shards = [_tensor((1, 1, 1), [(0, 0, 0, 6.0)]), _tensor((1, 1, 1), [(0, 0, 0, 10.0)])]
        site0 = FactorizationResult([[2.0]], [[3.0]], [[1.0]])
        site1 = FactorizationResult([[5.0]], [[2.0]], [[1.0]])
        assert rmse(shards, [site0, site1]) == 0.0

    def test_positive_once_any_entry_deviates(self):
        shards = [
            _tensor((1, 1, 1), [(0, 0, 0, 6.0)]),
            _tensor((1, 1, 1), [(0, 0, 0, 10.0 + 1e-6)]),
        ]
        site0 = FactorizationResult([[2.0]], [[3.0]], [[1.0]])
        site1 = FactorizationResult([[5.0]], [[2.0]], [[1.0]])
        assert rmse(shards, [site0, site1]) > 0.0

    def test_dimension_mismatch(self):
        t = _tensor((2, 1, 1), [(0, 0, 0, 1.0)])
        short = FactorizationResult([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(DimensionError, match="shard 0"):
            rmse([t], [short])

    def test_rank_mismatch_names_the_shard(self):
        t = _tensor((1, 1, 1), [(0, 0, 0, 1.0)])
        good = FactorizationResult([[1.0]], [[1.0]], [[1.0]])
        mixed = SimpleNamespace(A=np.ones((1, 2)), B=np.ones((1, 2)), C=np.ones((1, 3)))
        with pytest.raises(DimensionError, match=r"shard 1 differ: A, B, C have \(2, 2, 3\)"):
            rmse([t, t], [good, mixed])

    def test_list_length_mismatch(self):
        t = _tensor((1, 1, 1), [(0, 0, 0, 1.0)])
        site = FactorizationResult([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(DimensionError):
            rmse([t, t], [site])
        with pytest.raises(DimensionError):
            rmse([t], [site, site])

    def test_empty_tensor_rejected(self):
        t = SparseTensorCOO((1, 1, 1), np.empty((0, 3), dtype=np.int64), np.empty(0))
        site = FactorizationResult([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            rmse([t], [site])


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _random_factors(rng, dims, rank, nnz):
    factors = [rng.standard_normal((d, rank)) for d in dims]
    lin = rng.choice(math.prod(dims), size=nnz, replace=False)
    return factors, np.stack(np.unravel_index(lin, dims), axis=1)


@pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
class TestCompiledModelValues:
    @pytest.mark.parametrize("rank", [1, 3, 8, 50, 64, 65, 100, 128])
    def test_matches_reconstruct_values(self, rank):
        (A, B, C), coords = _random_factors(np.random.default_rng(rank), (60, 30, 40), rank, 5000)
        expected = reconstruct_values(A, B, C, coords)
        assert np.array_equal(_bits(tensor._model_values(A, B, C, coords)), _bits(expected))

    def test_fortran_ordered_and_sliced_factors(self):
        rng = np.random.default_rng(7)
        (A, B, C), coords = _random_factors(rng, (60, 30, 40), 6, 3000)
        wide = rng.standard_normal((30, 12))
        layouts = (np.asfortranarray(A), wide[:, ::2], np.repeat(C, 2, axis=0)[::2])
        assert not any(m.flags.c_contiguous for m in layouts)
        expected = reconstruct_values(*layouts, coords)
        assert np.array_equal(_bits(tensor._model_values(*layouts, coords)), _bits(expected))

    def test_empty_shard(self):
        (A, B, C), coords = _random_factors(np.random.default_rng(1), (4, 3, 2), 5, 0)
        assert coords.shape == (0, 3)
        assert tensor._model_values(A, B, C, coords).shape == (0,)

    def test_negative_zero_product_sums_from_positive_zero(self):
        coords = np.zeros((1, 3), dtype=np.int64)
        A, B, C = np.array([[-0.0]]), np.array([[3.0]]), np.array([[2.0]])
        expected = reconstruct_values(A, B, C, coords)
        assert np.array_equal(_bits(tensor._model_values(A, B, C, coords)), _bits(expected))
        assert not np.signbit(expected[0])

    def test_rmse_is_the_einsum_rmse(self, without_library):
        rng = np.random.default_rng(3)
        shards, sites = [], []
        for nnz in (0, 200, 2500):
            (A, B, C), coords = _random_factors(rng, (50, 20, 30), 8, nnz)
            shards.append(SparseTensorCOO((50, 20, 30), coords, rng.random(nnz) + 0.5))
            sites.append(FactorizationResult(A, B, C))
        compiled = rmse(shards, sites)
        with without_library():
            assert rmse(shards, sites) == compiled


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


def test_a_column_of_tiny_values_is_not_zero():
    # the norm of a 1e-170 column underflows to 0; its entries do not
    m = np.array([[1.0, 1e-170], [2.0, 1e-170], [3.0, 0.0], [4.0, 0.0]])
    assert np.linalg.norm(m, axis=0)[1] == 0.0
    assert zero_column_count(m) == 0
    assert zero_column_count(np.array([[1.0, -0.0], [2.0, 0.0]])) == 1
