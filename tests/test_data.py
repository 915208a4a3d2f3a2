"""Synthetic generation, COO files, partitioning, and config loading."""

import contextlib
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcp import _native, data
from fedcp.data import (
    ExperimentConfig,
    SynthSpec,
    config_overrides,
    generate_synthetic,
    load_config,
    partition_rows,
    permute_rows,
    read_coo,
    read_factors,
    write_coo,
    write_factors,
)
from fedcp.errors import ConfigError, ParseError, ProtocolError
from fedcp.federation import HEADER_BYTES, RoundMessage, ServerState, server_update
from fedcp.privacy import PrivacyParams, perturb_matrix
from fedcp.solver import SiteState, SolverParams, beta_lipschitz, run_local_epoch
from fedcp.tensor import (
    FactorizationResult,
    SparseTensorCOO,
    model_values,
    reconstruct_values,
    rmse,
)

import sanitized


class TestGenerateSynthetic:
    def test_reference_scale_counts(self):
        # 5000 x 300 x 800 at 1e-5 sparsity: ceil gives 12,000 entries,
        # five equal patient blocks of 1000 rows
        spec = SynthSpec(dims=(5000, 300, 800), rank_true=50, sparsity=1e-5, n_sites=5, seed=0)
        tensor, shards, truths = generate_synthetic(spec)
        assert tensor.nnz == 12_000
        assert [sh.dims[0] for sh in shards] == [1000] * 5
        assert sum(sh.nnz for sh in shards) == 12_000
        assert all(t.A.shape == (1000, 50) for t in truths)

    def test_same_seed_reproduces_exactly(self):
        spec = SynthSpec(dims=(40, 12, 14), rank_true=3, sparsity=5e-3, n_sites=2, seed=9)
        t1, s1, r1 = generate_synthetic(spec)
        t2, s2, r2 = generate_synthetic(spec)
        assert np.array_equal(t1.coords, t2.coords)
        assert np.array_equal(t1.values, t2.values)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.A, b.A)

    def test_truth_factors_reconstruct_every_entry(self):
        spec = SynthSpec(dims=(50, 15, 16), rank_true=4, sparsity=1e-2, n_sites=3, seed=4)
        _, shards, truths = generate_synthetic(spec)
        assert rmse(shards, truths) == 0.0

    def test_heterogeneity_removes_component_contribution(self):
        spec = SynthSpec(
            dims=(30, 10, 11), rank_true=3, sparsity=2e-2, n_sites=3,
            heterogeneity={1: (0, 2)}, seed=7,
        )
        _, _, truths = generate_synthetic(spec)
        assert np.all(truths[1].A[:, 0] == 0.0)
        assert np.all(truths[1].A[:, 2] == 0.0)
        assert np.any(truths[1].A[:, 1] != 0.0)
        assert np.any(truths[0].A[:, 0] != 0.0)

    def test_values_are_exact_reconstructions(self):
        spec = SynthSpec(dims=(20, 8, 9), rank_true=2, sparsity=2e-2, n_sites=2, seed=3)
        tensor, shards, truths = generate_synthetic(spec)
        assert sum(sh.nnz for sh in shards) == tensor.nnz
        for shard, truth in zip(shards, truths):
            model = reconstruct_values(truth.A, truth.B, truth.C, shard.coords)
            assert np.array_equal(shard.values, model)

    def test_zero_valued_cells_are_resampled(self):
        # site 1 has every truth component zeroed, so every cell drawn in its
        # block is zero-valued and must be replaced by a cell elsewhere
        spec = SynthSpec(
            dims=(30, 6, 7), rank_true=2, sparsity=0.1, n_sites=3,
            heterogeneity={1: (0, 1)}, seed=0,
        )
        tensor, shards, _ = generate_synthetic(spec)
        assert tensor.nnz == 126
        assert not np.any(tensor.values == 0.0)
        assert shards[1].nnz == 0
        again, _, _ = generate_synthetic(spec)
        assert np.array_equal(again.coords, tensor.coords)
        assert np.array_equal(again.values, tensor.values)

    def test_resample_draws_distinct_cells_outside_taken(self):
        # the zero-value resample uses the first draw's sampler, told which
        # cells are held: 6 of 9 cells taken, 3 wanted leaves one answer
        taken = np.array([0, 1, 2, 4, 5, 7], dtype=np.int64)
        cells, draws = data._sample_distinct(np.random.default_rng(0), 9, 3, taken=taken)
        assert cells.tolist() == [3, 6, 8]
        assert sorted(draws.tolist()) == [3, 6, 8]
        assert taken.tolist() == [0, 1, 2, 4, 5, 7]

    def test_too_few_cells_left_is_an_error(self):
        # every one of the 16 cells is drawn and site 0's 8 are zero-valued,
        # so no cell is left to replace them
        spec = SynthSpec(
            dims=(4, 2, 2), rank_true=1, sparsity=1.0, n_sites=2, heterogeneity={0: (0,)},
        )
        with pytest.raises(RuntimeError, match="cannot draw 8 more distinct cells: 16 of 16 are taken"):
            generate_synthetic(spec)

    def test_heterogeneity_that_zeroes_every_cell_is_rejected(self):
        # one site with both components zeroed: every cell would be zero, and
        # the spec fails before generate_synthetic draws anything
        with pytest.raises(ValueError, match="^heterogeneity zeroes every component at every site"):
            SynthSpec(dims=(28, 24, 22), rank_true=2, sparsity=0.5, n_sites=1,
                      heterogeneity={0: (0, 1)})
        # one live component at one site is enough
        SynthSpec(dims=(28, 24, 22), rank_true=2, sparsity=0.5, n_sites=2,
                  heterogeneity={0: (0, 1), 1: (0,)})

    @pytest.mark.parametrize("dims", [(3_000_000,) * 3, (2**21,) * 3], ids=["3e6 cubed", "2**63"])
    def test_dims_whose_product_overflows_int64_are_rejected(self, dims):
        # cells are numbered in int64: without the check, the first allocates
        # truth A before the sampler fails, the second fails in unravel_index
        with pytest.raises(ValueError, match=re.escape(
            f"dims {dims} must be positive with a product below 2**63"
        )):
            SynthSpec(dims=dims, rank_true=1, sparsity=1e-18, n_sites=1)

    def test_gives_up_after_the_first_draw_and_100_resamples(self, monkeypatch):
        # 100 of the 200 cells are live and 120 are wanted, so every resample
        # leaves zero-valued cells; the last of the 100 is checked, and no
        # 101st is drawn
        calls = []
        sample = data._sample_distinct

        def counted(*args, **kwargs):
            calls.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(data, "_sample_distinct", counted)
        spec = SynthSpec(dims=(10, 4, 5), rank_true=1, sparsity=0.6, n_sites=2,
                         heterogeneity={0: (0,)}, seed=1)
        with pytest.raises(RuntimeError, match="could not find non-zero cells; truth factors degenerate"):
            generate_synthetic(spec)
        assert len(calls) == 101

    def test_sampler_with_too_few_cells_left_raises_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="cannot draw 4 more distinct cells: 6 of 9 are taken"):
            data._sample_distinct(rng, 9, 4, taken=np.arange(6))
        assert rng.bit_generator.state == state

    @pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
    @pytest.mark.parametrize("spec", [
        *(SynthSpec(dims=(40, 20, 30), rank_true=r, sparsity=0.05, n_sites=3, seed=r)
          for r in (1, 3, 50, 70)),
        # test_zero_valued_cells_are_resampled's spec: values decide the resample
        SynthSpec(dims=(30, 6, 7), rank_true=2, sparsity=0.1, n_sites=3,
                  heterogeneity={1: (0, 1)}, seed=0),
        SynthSpec(dims=(40, 20, 30), rank_true=5, sparsity=0.05, n_sites=2, seed=2,
                  value_noise_std=0.5),
    ], ids=["rank1", "rank3", "rank50", "rank70", "resampled", "noisy"])
    def test_same_output_with_and_without_the_library(self, without_library, spec):
        compiled = _generated_arrays(generate_synthetic(spec))
        with without_library():
            python = _generated_arrays(generate_synthetic(spec))
        assert len(compiled) == len(python)
        for a, b in zip(compiled, python):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_truths_are_read_only(self):
        _, _, truths = generate_synthetic(
            SynthSpec(dims=(20, 8, 9), rank_true=2, sparsity=2e-2, n_sites=2, seed=3)
        )
        for truth in truths:
            for m in (truth.A, truth.B, truth.C):
                with pytest.raises(ValueError, match="read-only"):
                    m[0, 0] = 1.0

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthSpec(dims=(10, 10, 10), sparsity=1e-9, n_sites=1, rank_true=2))

    def test_rejects_zero_sparsity(self):
        with pytest.raises(ValueError):
            SynthSpec(dims=(10, 10, 10), sparsity=0.0)

    def test_observation_noise_knob(self):
        clean = generate_synthetic(
            SynthSpec(dims=(20, 8, 9), rank_true=2, sparsity=2e-2, n_sites=1, seed=3)
        )[0]
        noisy = generate_synthetic(
            SynthSpec(dims=(20, 8, 9), rank_true=2, sparsity=2e-2, n_sites=1, seed=3, value_noise_std=0.5)
        )[0]
        assert np.array_equal(clean.coords, noisy.coords)
        assert not np.array_equal(clean.values, noisy.values)


def _generated_arrays(generated):
    """Every array of a ``generate_synthetic`` result, with the dims, in
    one list: the global tensor, then each shard, then each truth."""
    tensor, shards, truths = generated
    arrays = []
    for t in (tensor, *shards):
        arrays += [np.array(t.dims), t.coords, t.values]
    for truth in truths:
        arrays += [truth.A, truth.B, truth.C]
    return arrays


def _sample_distinct_by_unique(rng, total, count, taken=None):
    """The sampler with a stable sort of every draw, through ``np.unique``:
    the reference that ``data._sample_distinct`` must match draw for draw.
    Returns the cells in the order they were drawn; ``taken`` may be in any
    order."""
    chosen = np.empty(0, dtype=np.int64) if taken is None else taken
    end = chosen.size + count
    if end > total:
        raise RuntimeError(
            f"cannot draw {count} more distinct cells: {chosen.size} of {total} are taken"
        )
    while chosen.size < end:
        batch = rng.integers(0, total, size=max(count, 2 * (end - chosen.size)))
        acc = np.concatenate([chosen, batch])
        _, first = np.unique(acc, return_index=True)
        chosen = acc[np.sort(first)]
    return chosen[end - count : end]


def _generate_by_draw_order(spec):
    """``generate_synthetic`` as it was when it kept the cells in the order
    they were drawn: the reference sampler, the values in draw order, one
    sort of the cells at the end, and every tensor and truth checked."""
    i_dim, j_dim, k_dim = spec.dims
    total_cells = i_dim * j_dim * k_dim
    scaled = spec.sparsity * total_cells
    if scaled < 1.0:
        raise ValueError("sparsity too small: no entries to generate")
    target = math.ceil(round(scaled, 9))
    if target > total_cells:
        raise ValueError("sparsity implies more entries than cells")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0,)))
    truth_a = rng.random((i_dim, spec.rank_true))
    truth_b = rng.random((j_dim, spec.rank_true))
    truth_c = rng.random((k_dim, spec.rank_true))
    starts = data._block_starts(i_dim, spec.n_sites)
    for site, cols in spec.heterogeneity.items():
        for c in cols:
            truth_a[starts[site] : starts[site + 1], c] = 0.0
    lin = _sample_distinct_by_unique(rng, total_cells, target)
    for _ in range(101):
        coords = np.stack(np.unravel_index(lin, spec.dims), axis=1).astype(np.int64, copy=False)
        values = model_values(truth_a, truth_b, truth_c, coords)
        dead = values == 0.0
        need = int(dead.sum())
        if need == 0:
            break
        lin[dead] = _sample_distinct_by_unique(rng, total_cells, need, taken=lin)
    else:
        raise RuntimeError("could not find non-zero cells; truth factors degenerate")
    if spec.value_noise_std > 0:
        values = values + rng.normal(0.0, spec.value_noise_std, size=values.shape)
    order = np.argsort(lin)
    tensor = SparseTensorCOO(spec.dims, coords[order], values[order])
    truths = [
        FactorizationResult(truth_a[starts[t] : starts[t + 1]], truth_b, truth_c)
        for t in range(spec.n_sites)
    ]
    return tensor, partition_rows(tensor, spec.n_sites), truths


def _outcome_and_stream(generate, spec):
    """What ``generate(spec)`` returns or raises, and the state its random
    generator is left in (None when it raised before making one)."""
    made = []
    real = np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        try:
            outcome = generate(spec)
        except (ValueError, RuntimeError) as exc:
            outcome = exc
    return outcome, made[0].bit_generator.state if made else None


@st.composite
def _generator_cases(draw):
    # few cells, where batches repeat cells and run out, and a site whose
    # every component is zeroed forces resamples; or up to 27,000 cells,
    # where a head holds a few repeats, or many when dense
    few = draw(st.booleans())
    dims = draw(st.tuples(*[st.integers(1, 6) if few else st.integers(5, 30)] * 3))
    rank = draw(st.integers(1, 4))
    n_sites = draw(st.integers(1, min(dims[0], 4)))
    components = st.lists(st.integers(0, rank - 1), max_size=rank - (not few), unique=True)
    spec = SynthSpec(
        dims=dims,
        rank_true=rank,
        sparsity=draw(st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.5, 0.9, 1.0]))),
        n_sites=n_sites,
        # SynthSpec rejects a heterogeneity that zeroes every component at every site
        heterogeneity=draw(st.dictionaries(
            st.integers(0, n_sites - 1), components.map(tuple), max_size=n_sites,
        ).filter(lambda h: len(h) < n_sites or min(map(len, h.values())) < rank)),
        seed=draw(st.integers(0, 2**32 - 1)),
        value_noise_std=draw(st.sampled_from([0.0, 0.0, 1e-3, 0.5])),
    )
    return spec, draw(st.booleans())


class TestDrawOrderReference:
    """``generate_synthetic`` against ``_generate_by_draw_order``."""

    @settings(max_examples=200, deadline=None)
    @given(case=_generator_cases())
    def test_matches_the_draw_order_reference(self, case, without_library):
        spec, library = case
        with contextlib.ExitStack() as stack:
            if not library:
                stack.enter_context(without_library())
            expected, expected_state = _outcome_and_stream(_generate_by_draw_order, spec)
            got, state = _outcome_and_stream(generate_synthetic, spec)
        if isinstance(expected, Exception):
            assert (type(got), str(got)) == (type(expected), str(expected))
            return
        # the same tensor, shards and truths, and the stream left where it was
        assert state == expected_state
        got, expected = _generated_arrays(got), _generated_arrays(expected)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@st.composite
def _sampler_cases(draw):
    # totals from a few cells, where a batch repeats cells and runs out of
    # fresh ones, to ranges where a repeat is rare
    total = draw(st.one_of(st.integers(1, 40), st.integers(41, 10**6), st.integers(10**6, 2**62)))
    cells = st.integers(0, total - 1)
    held = draw(st.lists(cells, max_size=min(total - 1, 60), unique=True))
    taken = None if not held and draw(st.booleans()) else np.array(sorted(held), dtype=np.int64)
    count = draw(st.integers(1, min(total - len(held), 3000)))
    return draw(st.integers(0, 2**32 - 1)), total, count, taken


class TestSampleDistinct:
    @settings(max_examples=300, deadline=None)
    @given(case=_sampler_cases())
    def test_matches_the_stable_sort_reference(self, case):
        seed, total, count, taken = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cells, draws = data._sample_distinct(rng, total, count, taken)
        expected = _sample_distinct_by_unique(ref_rng, total, count, taken)
        assert draws.dtype == expected.dtype and np.array_equal(draws, expected)
        assert cells.dtype == expected.dtype and np.array_equal(cells, np.sort(expected))
        # the same draws were consumed
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPartitionRows:
    def _tensor(self):
        coords = [(i, 0, 0) for i in range(10)]
        return SparseTensorCOO((10, 1, 1), coords, [float(i + 1) for i in range(10)])

    def test_single_partition_is_identity(self):
        t = self._tensor()
        (shard,) = partition_rows(t, 1)
        assert shard.dims == t.dims
        assert np.array_equal(shard.coords, t.coords)
        assert np.array_equal(shard.values, t.values)

    def test_remainder_goes_to_last_block(self):
        shards = partition_rows(self._tensor(), 3)
        assert [sh.dims[0] for sh in shards] == [3, 3, 4]

    def test_entry_rebasing(self):
        shards = partition_rows(self._tensor(), 5)
        # global row 7 lands in block 3 at local row 1
        coords, values = shards[3].coords.tolist(), shards[3].values.tolist()
        assert values[coords.index([1, 0, 0])] == 8.0

    def test_entries_keep_their_stored_order_within_a_block(self):
        # rows not sorted, as after permute_rows: each shard lists its
        # entries in the global tensor's order, not by row
        rows = [7, 1, 9, 0, 2, 8, 4, 3, 6, 5]
        t = SparseTensorCOO((10, 1, 1), [(i, 0, 0) for i in rows], [i + 1.0 for i in rows])
        for n_sites in (1, 2, 3, 10):
            starts = [site * (10 // n_sites) for site in range(n_sites)] + [10]
            for shard, lo, hi in zip(partition_rows(t, n_sites), starts, starts[1:]):
                mine = [i for i in rows if lo <= i < hi]
                assert shard.coords[:, 0].tolist() == [i - lo for i in mine]
                assert shard.values.tolist() == [i + 1.0 for i in mine]

    def test_too_many_partitions(self):
        with pytest.raises(ValueError):
            partition_rows(self._tensor(), 11)

    def _ordered(self, order):
        """A generated tensor (rows in order), its rows permuted, or its entries
        with one swap across the boundary of the first two of three blocks."""
        spec = SynthSpec(dims=(31, 6, 7), rank_true=2, sparsity=0.1, n_sites=1, seed=5)
        tensor, _, _ = generate_synthetic(spec)
        if order == "permuted":
            return permute_rows(tensor, seed=2)
        if order == "almost sorted":
            first = int(np.searchsorted(tensor.coords[:, 0], 10))  # block 1 starts at row 10
            swap = np.arange(tensor.nnz)
            swap[[first - 1, first]] = swap[[first, first - 1]]
            return SparseTensorCOO(tensor.dims, tensor.coords[swap], tensor.values[swap])
        return tensor

    @pytest.mark.parametrize("order", ["sorted", "permuted", "almost sorted"])
    def test_shards_equal_a_gather_of_each_block(self, order):
        tensor = self._ordered(order)
        for n_sites in (1, 2, 3, 7, 31):
            starts = [t * (31 // n_sites) for t in range(n_sites)] + [31]
            for shard, lo, hi in zip(partition_rows(tensor, n_sites), starts, starts[1:]):
                mine = (tensor.coords[:, 0] >= lo) & (tensor.coords[:, 0] < hi)
                coords = tensor.coords[mine] - [lo, 0, 0]
                assert shard.dims == (hi - lo, 6, 7)
                assert shard.coords.dtype == np.int64 and shard.coords.flags.c_contiguous
                assert shard.coords.tobytes() == coords.tobytes()
                assert shard.values.tobytes() == tensor.values[mine].tobytes()

    @pytest.mark.parametrize("order", ["sorted", "permuted"])
    def test_no_shard_shares_memory_with_the_tensor(self, order):
        tensor = self._ordered(order)
        for n_sites in (1, 3):
            for shard in partition_rows(tensor, n_sites):
                for mine, theirs in ((shard.coords, tensor.coords), (shard.values, tensor.values)):
                    assert not np.shares_memory(mine, theirs)

    def test_round_trip_concatenation(self):
        spec = SynthSpec(dims=(23, 6, 7), rank_true=2, sparsity=5e-2, n_sites=1, seed=2)
        tensor, _, _ = generate_synthetic(spec)
        for n_sites in (1, 2, 3, 5, 23):
            shards = partition_rows(tensor, n_sites)
            offsets = np.cumsum([0] + [sh.dims[0] for sh in shards])
            assert offsets[-1] == tensor.dims[0]
            assert all(sh.dims[1:] == tensor.dims[1:] for sh in shards)
            coords = np.concatenate(
                [sh.coords + [off, 0, 0] for sh, off in zip(shards, offsets)]
            )
            values = np.concatenate([sh.values for sh in shards])
            # each block keeps its entries in stored order
            assert np.array_equal(coords, tensor.coords)
            assert values.tobytes() == tensor.values.tobytes()

    @pytest.mark.parametrize("kind", ["plain", "shuffled", "heterogeneous"])
    def test_cut_shards_are_what_validation_builds(self, kind):
        # permute_rows and partition_rows skip the checks of SparseTensorCOO:
        # the permuted tensor and each shard must pass them and come out of
        # them unchanged
        spec = SynthSpec(
            dims=(41, 6, 7), rank_true=3, sparsity=0.1, n_sites=3, seed=3,
            heterogeneity={1: (0, 2)} if kind == "heterogeneous" else {},
        )
        tensor, _, _ = generate_synthetic(spec)
        if kind == "shuffled":
            tensor = permute_rows(tensor, seed=9)
        made = [tensor]
        for n_sites in (1, 3, 4, 41):
            made += partition_rows(tensor, n_sites)
        for shard in made:
            checked = SparseTensorCOO(shard.dims, shard.coords, shard.values)
            assert shard.dims == checked.dims
            assert all(type(d) is int for d in shard.dims)
            assert shard.coords.dtype == np.int64 and shard.coords.shape == (shard.nnz, 3)
            assert shard.values.dtype == np.float64 and shard.values.shape == (shard.nnz,)
            assert shard.coords.tobytes() == checked.coords.tobytes()
            assert shard.values.tobytes() == checked.values.tobytes()

    def test_permute_rows_keeps_entries(self):
        t = self._tensor()
        p = permute_rows(t, seed=5)
        assert p.dims == t.dims
        assert sorted(p.values.tolist()) == sorted(t.values.tolist())


class TestCooFiles:
    def test_round_trip(self, tmp_path):
        spec = SynthSpec(dims=(15, 6, 7), rank_true=2, sparsity=4e-2, n_sites=1, seed=8)
        tensor, _, _ = generate_synthetic(spec)
        path = tmp_path / "t.coo"
        write_coo(tensor, path)
        back = read_coo(path)
        assert back.dims == tensor.dims
        assert np.array_equal(back.coords, tensor.coords)
        assert np.array_equal(back.values, tensor.values)

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 1 1 1\n0 0 0 1.5\n")
        t = read_coo(path)
        assert t.coords.tolist() == [[0, 0, 0]]
        assert t.values.tolist() == [1.5]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 2 1 1\n# a comment\n\n0 0 0 1.0\n1 0 0 2.0\n")
        assert read_coo(path).nnz == 2

    def test_index_at_dim_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 1 1 1\n1 0 0 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_coo(path)

    def test_malformed_record_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 1 1 1\n0 0 zero 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_coo(path)

    @pytest.mark.parametrize("dims", ["0 1 1", "99999999999999999999 1 1", "4294967296 4294967296 1"])
    def test_bad_dims_rejected_with_line(self, tmp_path, dims):
        path = tmp_path / "t.coo"
        path.write_text(f"# dims {dims}\n0 0 0 1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_coo(path)

    def test_zero_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 2 1 1\n0 0 0 1.0\n1 0 0 0.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_coo(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "t.coo"
        path.write_text(f"# dims 1 1 1\n# comment\n0 0 0 {value}\n")
        with pytest.raises(ParseError, match="line 3"):
            read_coo(path)

    def test_index_beyond_float_precision_reads_exactly(self, tmp_path):
        big = 2**53 + 1  # the nearest float64 is 2**53
        path = tmp_path / "t.coo"
        path.write_text(f"# dims {big + 1} 1 1\n{big} 0 0 1.0\n")
        assert read_coo(path).coords.tolist() == [[big, 0, 0]]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("0 0 0 1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_coo(path)

    def test_duplicate_coordinate_rejected(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 1 1 1\n0 0 0 1.0\n0 0 0 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_coo(path)

    @pytest.mark.parametrize("chunks", [0, 0.5, 1, 1.5])
    def test_chunked_write_matches_one_record_at_a_time(self, tmp_path, chunks):
        nnz = int(chunks * data._WRITE_CHUNK)
        rng = np.random.default_rng(nnz)
        lin = np.sort(rng.choice(40 * 30 * 50, size=nnz, replace=False))
        coords = np.stack(np.unravel_index(lin, (40, 30, 50)), axis=1)
        values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-20, 20, nnz)
        tensor = SparseTensorCOO((40, 30, 50), coords, values)
        path = tmp_path / "t.coo"
        write_coo(tensor, path)
        expected = "# dims 40 30 50\n" + "".join(
            f"{i} {j} {k} {v!r}\n" for (i, j, k), v in zip(coords.tolist(), values.tolist())
        )
        assert path.read_bytes() == expected.encode()


def _read_by_line(path):
    """``read_coo`` with the bulk parse skipped: the line parser alone."""
    with open(path, "r", encoding="utf-8") as fh:
        return data._read_coo_lines(fh, data._coo_dims(fh.readline()))


def _three_outcomes(path, without_library):
    """What ``read_coo`` (compiled parse when loaded), ``read_coo`` without
    the library (as on a host without a C compiler) and the line parser
    alone give for one file."""
    got = _outcome(read_coo, path)
    with without_library():
        without_lib = _outcome(read_coo, path)
    return [got, without_lib, _outcome(_read_by_line, path)]


def _outcome(read, path):
    """The tensor a reader returns, as exact bits, or its error and message."""
    try:
        t = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return t.dims, t.coords.tolist(), t.values.tobytes()


_DIFF_HEAD = "# dims 12 2 2\n"
_FUZZ_DIMS = (12, 5, 5)
_ODD_INDEX = st.sampled_from([
    "-1", "12", "5", "+1", "007", "1_0", "1.0", "1e0", "-0", "0x1", "\uff19", "2**3",
    "9223372036854775807", "9223372036854775808", "#", "#1",
    "000000000000000001", "0000000000000000001",
])
_ODD_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "-0.0", "0", "nan", "-inf", "1e999", "1_0.5", "1.", ".5", "+.5e-3",
        "0x10", "1,5", "1.5e", "Infinity", "1\x00", "#x", "1#",
        "5e-324", "1e-400", "0x1p3", "infinity", "\u0661.5", "1" * 64,
    ]),
)
_PLAIN_VALUE = st.floats(allow_nan=False, allow_infinity=False).filter(bool).flatmap(
    lambda v: st.sampled_from([repr(v), format(v, ".25g")])
)
# beyond " " and "\t", separators that only str.split counts as whitespace
_ODD_SEP = st.sampled_from(["  ", " \t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003"])
_FAULTS = ["line", "repeat", "index", "value", "short", "long", "sep", "indent"]


@st.composite
def _coo_body_lines(draw):
    """Well-formed records inside the dims with up to two faults: a blank or
    comment line, a repeated coordinate, a strange index or value, a short
    or long record, an odd separator or an indent. One fault anywhere sends
    the whole body to the line parser, so bodies carry few."""
    n_lines = draw(st.integers(0, 8))
    records = [
        [str(draw(st.integers(0, d - 1))) for d in _FUZZ_DIMS] + [draw(_PLAIN_VALUE)]
        for _ in range(n_lines)
    ]
    seps = [[draw(st.sampled_from([" ", "\t"])) for _ in range(4)] for _ in range(n_lines)]
    indent, fixed = [""] * n_lines, [None] * n_lines
    for _ in range(draw(st.integers(0, 2)) if n_lines else 0):
        n = draw(st.integers(0, n_lines - 1))
        fault = draw(st.sampled_from(_FAULTS))
        if fault == "line":
            fixed[n] = draw(st.sampled_from(["", " ", "\t ", "# note", "  #x 1 2 3", "#"]))
        elif fault == "repeat":
            records[n][:3] = records[draw(st.integers(0, n_lines - 1))][:3]
        elif fault == "index":
            records[n][draw(st.integers(0, 2))] = draw(_ODD_INDEX)
        elif fault == "value":
            records[n][3] = draw(_ODD_VALUE)
        elif fault == "short":
            records[n][3] = ""
        elif fault == "long":
            records[n][3] += " " + draw(st.sampled_from(["# c", "1.0", "x"]))
        elif fault == "sep":
            seps[n][draw(st.integers(0, 2))] = draw(_ODD_SEP)
        else:
            indent[n] = draw(st.sampled_from([" ", "\t"]))
    return [
        fixed[n] if fixed[n] is not None
        else indent[n] + "".join(tok + sep for tok, sep in zip(records[n], seps[n])).rstrip(" \t")
        for n in range(n_lines)
    ]


# bodies (after the header) and the line parse_coo rejects, or None
_GRAMMAR_CASES = [
    ("", None),
    ("0 0 0 1.0", None),
    (" \t0 \t0\t 0  1.0 \t\r\n", None),
    ("000000000000000001 0 0 1.0\n", None),
    ("0000000000000000001 0 0 1.0\n", 2),
    ("0 0 0 +.5e-3\n", None),
    ("0 0 0 1.0\n\n", 3),
    ("0 0 0 1.0\r", 2),
    ("0 0 0 1.0\r1 0 0 1.0\n", 2),
    ("# c\n0 0 0 1.0\n", 2),
    ("1 0 0 1.0\n+1 0 0 1.0\n", 3),
    ("1_0 0 0 1.0\n", 2),
    ("0 0 0 1.0 # c\n", 2),
    ("0 0 0 1e\n", 2),
    ("0 0 0 1.0.0\n", 2),
    ("0 0 0 inf\n", 2),
    ("0 0 0 1\x00\n", 2),
    ("0 0 0 " + "1" * 63 + "\n", None),
    ("0 0 0 " + "1" * 64 + "\n", 2),
    ("0 0 0\n", 2),
    ("0\x0b0 0 1.0\n", 2),
    # an 8-digit group followed by a value byte, a non-value byte or the
    # end of the body; trailing blanks leave 0 to 8 bytes after the token
    ("0 0 0 12345678e3\n", None),
    ("0 0 0 0.12345678E-3", None),
    ("0 0 0 12345678.5\n", None),
    ("0 0 0 0.12345678.\n", 2),
    ("0 0 0 0.12345678+\n", 2),
    ("0 0 0 0.12345678x\n", 2),
    ("0 0 0 0.12345678e\n", 2),
    ("0 0 0 0.12345678.", 2),
    ("0 0 0 0.12345678x", 2),
    ("0 0 0 0.1234567812345678", None),
    ("0 0 0 0.1234567812345678        ", None),
    ("0 0 0 0.1234567812345678       x", 2),
    # a 20th significant digit, read by strtod
    ("0 0 0 12345678901234567890", None),
    ("0 0 0 0.00000000000000001234567890123456789012\n", None),
    # leading zeros are not significant, but they count toward 63 bytes
    ("0 0 0 " + "0" * 62 + "1", None),
    ("0 0 0 " + "0" * 63 + "1\n", 2),
    ("0 0 0 0." + "0" * 60 + "1\n", None),
    ("0 0 0 0." + "0" * 61 + "1", 2),
]


def _grammar_values(body):
    """The float() of each record's value in an accepted body of the table."""
    return [float(line.split()[3]) for line in body.split("\n") if line.strip()]


class TestBulkMatchesLineParser:
    """``read_coo`` parses in bulk when the library loaded, and falls back
    to the line parser; with or without the library it must give what the
    line parser alone gives."""

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("0 0 0 1.0 # x\n", "line 2"),
            ("  # indented comment\n0 0 0 1.0\n", [(0, 0, 0, 1.0)]),
            ("#no space\n1 1 1 2.0\n", [(1, 1, 1, 2.0)]),
            ("1.0 0 0 1.0\n", "line 2"),
            ("1e3 0 0 1.0\n", "line 2"),
            ("1_0 0 0 1.0\n", [(10, 0, 0, 1.0)]),
            ("+1 0 0 1.0\n", [(1, 0, 0, 1.0)]),
            ("007 0 0 1.0\n", [(7, 0, 0, 1.0)]),
            ("9223372036854775808 0 0 1.0\n", "line 2"),
            ("-9223372036854775808 0 0 1.0\n", "line 2"),
            ("0 0 0 -0.0\n", "line 2"),
            ("0 0 0 nan\n", "line 2"),
            ("0 0 0 inf\n", "line 2"),
            ("0 0 0 1e999\n", "line 2"),
            ("0 0 0 1.234567890123456789012345\n", [(0, 0, 0, float("1.234567890123456789012345"))]),
            ("0 0 0\n", "line 2"),
            ("0 0 0 1.0 2.0\n", "line 2"),
            ("0\t1\t1\t2.5\n", [(0, 1, 1, 2.5)]),
            ("0 0 0 1.0\r\n1 0 0 2.0\r\n", [(0, 0, 0, 1.0), (1, 0, 0, 2.0)]),
            ("0 0 0 1.0\r1 0 0 2.0\r", [(0, 0, 0, 1.0), (1, 0, 0, 2.0)]),
            ("\n   \n0 0 0 1.0\n\t\n", [(0, 0, 0, 1.0)]),
            ("0 0 0 1.0\n1 0 0 2.0\n2 0 0 nan\n", "line 4"),
            ("0 0 0 1.0\n0 0 0 2.0\n", "duplicate tensor coordinate (0, 0, 0)"),
            ("", []),
            ("000000000000000001 0 0 1.0\n", [(1, 0, 0, 1.0)]),  # 18 digits
            ("0000000000000000001 0 0 1.0\n", [(1, 0, 0, 1.0)]),  # 19 digits
            ("0 0 0 1.0\n1 0 0 2.0", [(0, 0, 0, 1.0), (1, 0, 0, 2.0)]),
            ("0\t1\t1\t2.5\r\n1\t0 \t0\t-3.5 \r\n", [(0, 1, 1, 2.5), (1, 0, 0, -3.5)]),
            ("0 0 0 5e-324\n", [(0, 0, 0, 5e-324)]),
            ("0 0 0 2.2250738585072011e-308\n", [(0, 0, 0, 2.2250738585072011e-308)]),
            ("0 0 0 1e-400\n", "line 2"),
            ("0 0 0 0x1p3\n", "line 2"),
            ("0 0 0 infinity\n", "line 2"),
            ("0 0 0 1,5\n", "line 2"),
            ("0 0 0 1.5e\n", "line 2"),
            ("0 0 0 " + "1" * 64 + "\n", [(0, 0, 0, float("1" * 64))]),
            ("\uff11 0 0 1.0\n", [(1, 0, 0, 1.0)]),  # a fullwidth digit
            ("0 0 0 \u0661.5\n", [(0, 0, 0, 1.5)]),  # an Arabic-Indic digit
            ("0 0 0 1.5\u00b5\n", "line 2"),
            ("0 1 1.5\n", "line 2"),
            ("0 0 0 1.0\n# note\n\n1 0 0 2.0\n0 0 0 2.0\n# note\n",
             "line 6: duplicate tensor coordinate (0, 0, 0)"),
        ],
    )
    def test_table(self, tmp_path, without_library, body, expected):
        path = tmp_path / "t.coo"
        path.write_bytes((_DIFF_HEAD + body).encode("utf-8"))
        got, without_lib, by_line = _three_outcomes(path, without_library)
        assert got == without_lib == by_line
        if isinstance(expected, str):
            assert expected in got[1]
        else:
            coords = [list(e[:3]) for e in expected]
            values = np.array([e[3] for e in expected], dtype=np.float64).tobytes()
            assert got == ((12, 2, 2), coords, values)

    def test_empty_body_warns_nothing(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# dims 1 1 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_coo(path).nnz == 0

    def test_plain_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        if _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        spec = SynthSpec(dims=(15, 6, 7), rank_true=2, sparsity=4e-2, n_sites=1, seed=8)
        generated, _, _ = generate_synthetic(spec)
        # negative values and values whose repr takes exponent form
        odd = [-1.5, 1e-05, 1.5e16, -2.5e-300, 5e-324, -1.7976931348623157e308, 1e22]
        values = generated.values.copy()
        values[: len(odd)] = odd
        tensor = SparseTensorCOO(generated.dims, generated.coords, values)
        path = tmp_path / "t.coo"
        write_coo(tensor, path)
        assert b" 1e-05\n" in path.read_bytes() and b" 1.5e+16\n" in path.read_bytes()

        def no_line_parse(fh, dims):
            raise AssertionError("the bulk parse rejected a file write_coo wrote")

        monkeypatch.setattr(data, "_read_coo_lines", no_line_parse)
        back = read_coo(path)
        assert np.array_equal(back.coords, tensor.coords)
        assert back.values.tobytes() == tensor.values.tobytes()

    def test_without_the_library_no_bulk_parse_is_tried(
        self, tmp_path, monkeypatch, without_library
    ):
        path = tmp_path / "t.coo"
        path.write_text(_DIFF_HEAD + "0 0 0 1.5\n11 1 1 -2.0\n")

        def no_bulk_parse(raw, body_start):
            raise AssertionError("read_coo tried the bulk parse without the library")

        monkeypatch.setattr(data, "_bulk_parse", no_bulk_parse)
        with without_library():
            got = _outcome(read_coo, path)
        assert got == ((12, 2, 2), [[0, 0, 0], [11, 1, 1]], np.array([1.5, -2.0]).tobytes())

    @pytest.mark.parametrize("body, rejected_line", _GRAMMAR_CASES)
    def test_compiled_grammar(self, body, rejected_line):
        if _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        raw = (_DIFF_HEAD + body).encode("utf-8")
        if rejected_line is None:
            coords, values = data._bulk_parse(raw, len(_DIFF_HEAD))
            want = np.array(_grammar_values(body))
            assert coords.shape == (want.size, 3)
            assert values.tobytes() == want.tobytes()
        else:
            with pytest.raises(ValueError, match=f"^line {rejected_line} is outside the grammar"):
                data._bulk_parse(raw, len(_DIFF_HEAD))

    def test_without_a_compiler_the_line_parser_reads_the_same(
        self, tmp_path, monkeypatch, without_library
    ):
        spec = SynthSpec(dims=(15, 6, 7), rank_true=2, sparsity=4e-2, n_sites=1, seed=8)
        tensor, _, _ = generate_synthetic(spec)
        good = tmp_path / "good.coo"
        write_coo(tensor, good)
        bad = []
        for n, record in enumerate(["0 0 0 nan", "0 0 x 1.0", "99 0 0 1.0", "0 0 0 0.0"]):
            bad.append(tmp_path / f"bad{n}.coo")
            bad[-1].write_text(f"# dims 2 1 1\n1 0 0 2.0\n{record}\n")
        paths = [good, *bad]
        loaded = [_outcome(read_coo, path) for path in paths]
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native.load(tmp_path / "lib") is None
        with without_library():
            assert [_outcome(read_coo, path) for path in paths] == loaded
        assert loaded[0][2] == tensor.values.tobytes()
        assert all(message.startswith("line 3: ") for _, message in loaded[1:])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        lines=_coo_body_lines(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        final=st.booleans(),
    )
    def test_generated_bodies(self, tmp_path_factory, without_library, lines, newline, final):
        path = tmp_path_factory.getbasetemp() / "fuzz.coo"
        body = newline.join(lines) + (newline if final and lines else "")
        head = "# dims {} {} {}\n".format(*_FUZZ_DIMS)
        path.write_bytes((head + body).encode("utf-8"))
        got, without_lib, by_line = _three_outcomes(path, without_library)
        assert got == without_lib == by_line


def _assert_parsed_as_float(tokens):
    """Each token, the value of its own record, comes out of the compiled
    parse with the bits of ``float(token)``, zeros included (whose sign
    must survive): in a body of one record per token, and as the last
    token of a body without a final newline, followed by 0 to 8 blanks,
    where fewer than 8 bytes may be left to load."""
    want = np.array([float(t) for t in tokens])
    body = "".join(f"0 0 0 {t}\n" for t in tokens).encode()
    _, values = data._bulk_parse(b"# dims 1 1 1\n" + body, 13)
    assert values.tobytes() == want.tobytes(), [
        t for t, v, w in zip(tokens, values.tolist(), want.tolist()) if v != w
    ]
    for t, w in zip(tokens, want.tolist()):
        for blanks in range(9):
            _, last = data._bulk_parse(f"# dims 1 1 1\n0 0 0 {t}{' ' * blanks}".encode(), 13)
            assert last.tobytes() == np.array([w]).tobytes(), (t, blanks)


@st.composite
def _digit_strings(draw):
    """1 to 25 significant digits after up to three leading zeros, with an
    optional sign, the point anywhere (or none) and an optional exponent
    within +-30."""
    n = draw(st.integers(1, 25))
    digits = "0" * draw(st.integers(0, 3)) + str(draw(st.integers(10 ** (n - 1), 10**n - 1)))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    token = draw(st.sampled_from(["", "+", "-"]))
    token += digits if point is None else digits[:point] + "." + digits[point:]
    exponent = draw(st.one_of(st.none(), st.integers(-30, 30)))
    if exponent is not None:
        sign = draw(st.sampled_from(["", "+"])) if exponent >= 0 else ""
        token += draw(st.sampled_from(["e", "E"])) + sign + str(exponent)
    return token


def _midpoints(count, seed):
    """Decimal midpoints of adjacent doubles between 0.1 and 1e17, written
    at 17, 18 and 19 significant digits: each lies within a small fraction
    of an ulp of the tie, on either side of it or on it."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-1, 17, count)
    tokens = []
    for low in lows.tolist():
        mid = (Decimal(low) + Decimal(math.nextafter(low, math.inf))) / 2
        tokens += [format(mid, f".{p - 1}e") for p in (17, 18, 19)]
    return tokens


_BOUNDARY_TOKENS = [
    "0000.5", "007", "00012.50", "1.", ".5", "+1", "-1", "1e5", "1E+05", "1e-5",
    "-0.0", "0.0", "+0e-7", "-.5e-3", "1e22", "1e23", "1e-22", "1e-23",
    "5e-324", "2.2250738585072014e-308", "2.225073858507201e-308",
    "1.7976931348623157e308", "-1e-320", "1.00000000000000011102230246251565e0",
    "9007199254740992", "9007199254740993", "9007199254740993.0",
    "9007199254740992e-22", "9007199254740993e-22",
    # 19 significant digits, then 20: the most that fit the fast path
    "1234567890123456789", "12345678901234567890",
    "0.1234567890123456789", "0.12345678901234567890",
    "9999999999999999999", "99999999999999999999",
    "9999999999999999999e-19", "9999999999999999999e-20",
    "0.0000000001234567890123456789", "1234567890.123456789",
    "1.000000000000000000", "1.0000000000000000000",
    # exact ties that the division resolves to the even neighbour,
    # and the same ties nudged by one unit in the last digit
    "4503599627370496.5", "4503599627370497.5", "2251799813685248.25",
    "2251799813685248.75", "9007199254740995.0", "18014398509481986.0",
    "4503599627370496.499", "4503599627370496.501",
    "2251799813685248.249", "2251799813685248.251",
    # 1 to 20 significant digits with the point at every place or none;
    # the parse reads whole groups of eight digits, and a 20th falls to strtod
    *(
        digits if point is None else digits[:point] + "." + digits[point:]
        for source in ("31415926535897932384", "90000000100000002000")
        for digits in (source[:n] for n in range(1, 21))
        for point in (None, *range(len(digits) + 1))
    ),
    # runs of leading zeros that end inside, at or past an 8-byte group
    *(
        token
        for z in (7, 8, 9, 15, 16, 17)
        for token in ("0" * z + "123456789", "0." + "0" * z + "123456789012",
                      "0" * z + "." + "0" * z + "1", "0" * z + "1234567890123456789")
    ),
    # an 8-digit group followed directly by the exponent or the point
    "12345678e3", "0.12345678e-3", "0.1234567812345678E+2", "12345678.5",
    "1234567812345678.5e-7",
]
_COMPILED = pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")


class TestValuesReadAsFloat:
    """The compiled parse reads most values with an exact fast path and the
    rest with strtod; every value must carry the bits of ``float()``."""

    @_COMPILED
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_repr_of_any_finite_double(self, values):
        _assert_parsed_as_float([repr(v) for v in values])

    @_COMPILED
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(_digit_strings(), min_size=1, max_size=40))
    def test_digit_strings(self, tokens):
        _assert_parsed_as_float(tokens)

    @_COMPILED
    def test_boundaries(self):
        _assert_parsed_as_float(_BOUNDARY_TOKENS)

    @_COMPILED
    def test_midpoints_between_adjacent_doubles(self):
        _assert_parsed_as_float(_midpoints(3000, seed=16))

    def test_read_coo_with_and_without_the_library(self, tmp_path, without_library):
        # the finite non-zero tokens, the ones a tensor stores
        kept = [t for t in _BOUNDARY_TOKENS if float(t) != 0.0]
        path = tmp_path / "values.coo"
        path.write_text(
            f"# dims {len(kept)} 1 1\n" + "".join(f"{n} 0 0 {t}\n" for n, t in enumerate(kept))
        )
        want = np.array([float(t) for t in kept]).tobytes()
        assert read_coo(path).values.tobytes() == want
        with without_library():
            assert read_coo(path).values.tobytes() == want


# 1 to 9, 16 and 50 take the ranks sgd_pass holds as literals (3, 5 and
# 50, the one body that steps pairs) and the general body; at 129 the row
# norms of beta split pairwise_squares' 129 terms in two, with c NULL
_KERNEL_RANKS = (*range(1, 10), 16, 50, 129)


def _exact_copy(raw: bytes) -> np.ndarray:
    """``raw`` in a numpy buffer of exactly its size: a ``bytes`` object
    keeps a NUL past its data, inside its block, where a load of one byte
    past the end goes unseen."""
    return np.frombuffer(raw, dtype=np.uint8).copy()


def _eighths(rows, rank, offset):
    """A (rows, rank) matrix, entry (i, r) ((i + offset * r) % 5 + 1) / 8."""
    return ((np.arange(rows)[:, None] + offset * np.arange(rank)) % 5 + 1) / 8.0


def _untemper(y):
    """The MT19937 state word whose tempered output is ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t
    for _ in range(3):
        t = y ^ (t >> 11)
    return t & 0xFFFFFFFF


_NOISE_KINDS = "ffwftffwwfttfwff" * 4


def _noise_words():
    """A cycle of 32-bit words: one draw word for each letter of
    _NOISE_KINDS, each a pair of 32-bit words (high first), laid out as
    numpy's ziggurat reads them: bits 0-7 the layer, bit 8 the sign, bits
    9-60 the magnitude. "f" takes the common
    path (a magnitude below 3 * 2^50, under every layer's bound but layer
    1's, which is 0); "w" a wedge test: in layer 1 at a small magnitude,
    which accepts, and in layers 7 and 255 at or next to the largest,
    which may not; "t" the tail (layer 0 and the largest magnitude, bit 8
    of it giving the sign). Bits 61-63 of a "w" or "t" word make it read as
    a double in [0.25, 0.75): the tail loop accepts any pair of doubles
    read from two such words, so no draw loops for ever.
    """
    top = (1 << 52) - 1
    words = []
    for u, kind in enumerate(_NOISE_KINDS):
        if kind == "f":
            layer, rabs = 2 + (u * 37) % 254, (u * 0x9E3779B97F4A7C15 >> 12) % (3 << 50)
        elif kind == "w":
            layer = (7, 1, 255)[u % 3]
            rabs = 1 << 40 if layer == 1 else top - (u % 2) * (1 << 40)
        else:
            # the sign (bit 8) and bit 7 vary apart over the cycle
            layer, rabs = 0, top ^ (u >> 4 & 1) << 8 ^ (u >> 5 & 1) << 7
        word = (2, 3, 5)[u % 3] << 61 | rabs << 9 | (u & 1) << 8 | layer
        if kind == "f":
            word &= (1 << 61) - 1
        words += [word >> 32, word & 0xFFFFFFFF]
    return words


def _noise_stream(words):
    """A Generator on an MT19937 whose 32-bit outputs are ``words`` repeated,
    up to its first twist: its state holds the cycle, untempered, from its
    first place on."""
    bits = np.random.MT19937(0)
    key = np.array([_untemper(words[j % len(words)]) for j in range(624)], dtype=np.uint32)
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


def _mt_state(rng):
    state = rng.bit_generator.state["state"]
    return state["key"].tobytes(), state["pos"]


def _noise_paths(words):
    """(the letter of _NOISE_KINDS a draw starts at, the words it takes) for
    each ``standard_normal`` drawn from ``_noise_stream(words)`` before its
    first twist: 2 words per try."""
    rng, paths, pos = _noise_stream(words), set(), 0
    while True:
        rng.standard_normal()
        after = rng.bit_generator.state["state"]["pos"]
        if after < pos:
            return paths
        paths.add((_NOISE_KINDS[pos % len(words) // 2], after - pos))
        pos = after


def _server_step(blobs, held, b_hat, c_hat):
    """(status, out, change) of ``server_step`` over copies of the encodings,
    the anchors and the two arrays of pointers to the encodings, each in a
    buffer of exactly its size."""
    uploads = [[_exact_copy(blob) for blob in cohort] for cohort in (blobs, held or [])]
    addresses = [np.array([u.ctypes.data for u in cohort], dtype=np.uintp) for cohort in uploads]
    b_hat, c_hat = b_hat.copy(), c_hat.copy()
    out, change = np.empty(b_hat.size + c_hat.size), np.empty(1)
    status = _native.LIBRARY.server_step(
        len(blobs), addresses[0].ctypes.data, None if held is None else addresses[1].ctypes.data,
        HEADER_BYTES, b_hat.size, out.size, b_hat.ctypes.data, c_hat.ctypes.data, 0.05, 0.5,
        out.ctypes.data, change.ctypes.data,
    )
    return status, out, change


@_COMPILED
class TestKernelEdges:
    """Each kernel at its edge cases against its Python path, every buffer it
    reads or writes exactly the size of its contents. Under tests/sanitized.py
    a load of a word past the end of a COO body, a write past a formatting
    buffer, a read or write past a factor, a shard or a round's outputs,
    past the matrix a noise draw adds to or its output, or past an upload,
    an anchor or the server step's output, stops the run with a report."""

    def test_parse_grammar_bodies(self):
        for body, rejected_line in _GRAMMAR_CASES:
            raw = body.encode("utf-8")
            if rejected_line is not None:
                with pytest.raises(ValueError, match=f"^line {rejected_line} is outside"):
                    data._bulk_parse(_exact_copy(raw), 0)
                continue
            coords, values = data._bulk_parse(_exact_copy(raw), 0)
            by_line = data._read_coo_lines(data._text(raw), (12, 2, 2))
            assert coords.tolist() == by_line.coords.tolist(), body
            assert values.tobytes() == by_line.values.tobytes(), body

    def test_parse_boundary_tokens(self):
        # each token as the last of a body, with 0 to 8 blanks left to load;
        # the line parser takes float(), and refuses the zeros a tensor may not hold
        for token in _BOUNDARY_TOKENS:
            want = np.array([float(token)]).tobytes()
            for blanks in range(9):
                raw = f"0 0 0 {token}{' ' * blanks}".encode()
                coords, values = data._bulk_parse(_exact_copy(raw), 0)
                assert (coords.tolist(), values.tobytes()) == ([[0, 0, 0]], want), (token, blanks)

    def test_format_into_buffers_of_0_to_256_bytes(self):
        # two records of three INT64_MIN and -1.2345678901234567e-10 each:
        # each record needs its full room
        ints = np.full((2, 3), -(2**63), dtype=np.int64)
        values = np.full((2, 1), -1.2345678901234567e-10)
        line = f"{-2**63} {-2**63} {-2**63} {-1.2345678901234567e-10!r}\n".encode()
        room = data._record_bytes(3, 1)
        for cap in range(257):
            out = np.empty(cap, dtype=np.uint8)
            size = _native.LIBRARY.format_records(
                ints.ctypes.data, 3, values.ctypes.data, 1, 2, out.ctypes.data, cap
            )
            assert size == (-1 if cap < room else -2 if cap < len(line) + room else 2 * len(line))
            if size > 0:
                assert out[:size].tobytes() == line * 2

    def test_format_range_ends_and_powers_of_ten(self):
        # each value alone into a buffer of exactly its record's room: the
        # range ends and every power of two and of ten in range, with their
        # neighbours, take every row of the power-of-ten table on both of
        # its paths (a power of two's narrower interval, every other value's)
        room = data._record_bytes(0, 1)
        powers = [2.0**e for e in range(-58, 64)] + [float(f"1e{e}") for e in range(-17, 19)]
        values = [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
        values = [s * v for v in values for s in (1.0, -1.0) if 2.0**-58 <= v < 2.0**63]
        assert 2.0**-58 in values and math.nextafter(2.0**63, 0.0) in values
        for v in values + [math.nextafter(2.0**-58, 0.0), 2.0**63]:
            value, out = np.array([v]), np.empty(room, dtype=np.uint8)
            size = _native.LIBRARY.format_records(
                None, 0, value.ctypes.data, 1, 1, out.ctypes.data, room
            )
            if 2.0**-58 <= abs(v) < 2.0**63:
                assert out[:size].tobytes() == f"{v!r}\n".encode(), v
            else:
                assert size == -1, v

    @pytest.mark.parametrize("rank", _KERNEL_RANKS)
    def test_site_round(self, without_library, rank):
        # 3 and 10 entries are fewer than the pass's prefetch distances, and
        # 3 leave a lone entry after a pair; most consecutive entries share no row
        dims = (5, 4, 3)
        params = SolverParams(eta=0.05, gamma=0.5, mu=0.2, tau=2, clip=0.3)
        b_hat, c_hat = _eighths(4, rank, 4), _eighths(3, rank, 0)
        for nnz in (3, 10, 40):
            n = np.arange(nnz)
            tensor = SparseTensorCOO(dims, np.column_stack([n % d for d in dims]),
                                     (n % 7 + 1) / 4.0)
            factors = [_eighths(rows, rank, offset) for rows, offset in zip(dims, (1, 2, 3))]
            compiled, python = (SiteState(tensor, *(m.copy() for m in factors), rng_seed=nnz,
                                          site_id=0) for _ in range(2))
            sums = run_local_epoch(compiled, (b_hat, c_hat), params)
            with without_library():
                assert run_local_epoch(python, (b_hat, c_hat), params) == sums
            for name in "ABC":
                assert getattr(compiled, name).tobytes() == getattr(python, name).tobytes()
            assert compiled.shuffle_rng.bit_generator.state == python.shuffle_rng.bit_generator.state
            # the round's out: the sse, then beta of the factors it started from
            out = compiled._round_args[3]
            assert out.tolist() == [sums.sse, beta_lipschitz(*factors, params.gamma)]

    def test_model_values_on_0_to_9_entries(self):
        # every count of entries left after model_values' groups of four
        for rank in _KERNEL_RANKS:
            A, B, C = (_eighths(rows, rank, offset) for rows, offset in zip((5, 4, 3), (1, 2, 3)))
            for nnz in range(10):
                n = np.arange(nnz)
                coords = np.column_stack([n % d for d in (5, 4, 3)])
                want = reconstruct_values(A, B, C, coords)
                assert model_values(A, B, C, coords).tobytes() == want.tobytes(), (rank, nnz)

    def test_gaussian_perturb(self, without_library):
        words = _noise_words()
        for n in (0, 1, 7, 4096):
            i = np.arange(n)
            m = np.where(i % 3 == 0, -0.0, (i % 5 - 2) / 8.0)
            compiled, python = _noise_stream(words), _noise_stream(words)
            got = perturb_matrix(m, 0.75, compiled)
            with without_library():
                assert perturb_matrix(m, 0.75, python).tobytes() == got.tobytes(), n
            assert _mt_state(compiled) == _mt_state(python), n
        # the common path (2 words), a wedge test that accepts (a try and a
        # double), one that rejects and tries again, and the tail (a try and
        # pairs of doubles)
        paths = _noise_paths(words)
        assert {("f", 2), ("w", 4), ("t", 6)} <= paths
        assert any(kind == "w" and took > 4 for kind, took in paths)

    @pytest.mark.parametrize("sites", (1, 3))
    @pytest.mark.parametrize("size", (1, 7, 8, 129, 4099))
    def test_server_step(self, without_library, sites, size):
        # the first cohort, the second against the first, and the second
        # with an inf at the end, each as server_update takes it without the library
        split, i = (size + 1) // 2, np.arange(size)

        def values(numerator, scale):
            return np.where((numerator == 0) & (i % 2 == 1), -0.0, numerator / scale)

        def encode(cohort, epoch):
            return [RoundMessage(t, epoch, v[:split].reshape(-1, 1),
                                 v[split:].reshape(-1, 1)).to_bytes()
                    for t, v in enumerate(cohort)]

        hat = values((5 * i) % 7 - 3, 4.0)
        first, second = ([values((i * (t + 2) + 3 * q) % 11 - 5, 8.0) for t in range(sites)]
                         for q in (0, 1))
        poisoned = [v.copy() for v in second]
        poisoned[-1][-1] = math.inf
        for cohort, prev in ((first, None), (second, first), (poisoned, first)):
            blobs, held = encode(cohort, 1), None if prev is None else encode(prev, 0)
            status, out, change = _server_step(blobs, held, hat[:split], hat[split:])
            server = ServerState(B_hat=hat[:split].reshape(-1, 1),
                                 C_hat=hat[split:].reshape(-1, 1), n_sites=sites, uploads=held)
            with without_library():
                if cohort is poisoned:
                    with pytest.raises(ProtocolError):
                        server_update(server, blobs, 0.05, 0.5)
                    assert status != 0
                    continue
                want = server_update(server, blobs, 0.05, 0.5)
            assert status == 0
            anchors = np.concatenate([server.B_hat.ravel(), server.C_hat.ravel()])
            assert out.tobytes() == anchors.tobytes()
            if want is not None:
                assert change.tobytes() == np.float64(want).tobytes()


class TestSanitizerCanary:
    """The environment tests/sanitized.py runs pytest in reports a read one
    byte past a buffer: without the ASan runtime preloaded, or with Python's
    own allocator, a sanitized run would pass in silence."""

    # an exact-size numpy buffer, a malloc block whatever Python allocates
    # with, and a small bytes object, one only with PYTHONMALLOC=malloc: 12
    # bytes of it reach one past the NUL after its data
    @pytest.mark.parametrize("probe", [
        "a, b = np.zeros(10, np.uint8), np.empty(11, np.uint8)\n"
        "ctypes.memmove(b.ctypes.data, a.ctypes.data, 11)",
        "ctypes.memmove(ctypes.create_string_buffer(12), bytes(10), 12)",
    ], ids=["numpy", "bytes"])
    def test_a_one_byte_over_read_is_reported(self, probe):
        env = sanitized.environment()
        if env is None:
            pytest.skip("no cc, or no ASan runtime for it")
        run = subprocess.run(
            [sys.executable, "-c", f"import ctypes\nimport numpy as np\n{probe}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode != 0 and "heap-buffer-overflow" in run.stderr, run.stderr[-2000:]


class TestKernelsUnderSanitizers:
    """TestKernelEdges run by tests/sanitized.py: the kernels built with
    AddressSanitizer and UndefinedBehaviorSanitizer, in a process that
    started with the ASan runtime and whose every block is a malloc block."""

    def test_kernel_edges_stay_inside_their_buffers(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        run = subprocess.run(
            [sys.executable, str(root / "tests" / "sanitized.py"), "-q", "-rs",
             "tests/test_data.py::TestKernelEdges"],
            cwd=root, env=env, capture_output=True, text=True, timeout=600,
        )
        if run.returncode == sanitized.NO_SANITIZERS:
            pytest.skip(run.stderr.strip())
        # a sanitizer's report starts with what it found
        assert run.returncode == 0, run.stdout[-3000:] + run.stderr[:3000]
        summary = run.stdout.strip().splitlines()[-1]
        assert " passed" in summary and "skipped" not in summary, summary


class TestFactorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        result = FactorizationResult(rng.random((4, 2)), rng.random((3, 2)), rng.random((5, 2)))
        path = tmp_path / "f.factors"
        write_factors(result, path)
        back = read_factors(path)
        assert np.array_equal(back.A, result.A)
        assert np.array_equal(back.B, result.B)
        assert np.array_equal(back.C, result.C)

    def test_truncated_block_rejected(self, tmp_path):
        path = tmp_path / "f.factors"
        path.write_text("# rows 2 1\n0.5\n")
        with pytest.raises(ParseError):
            read_factors(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# rows 0 5\n# rows 100000000000 5\n0 0 0 0 0\n", "line 2: factor block truncated"),
            ("# rows 1 100000000000\n0.5\n", "line 2: expected 100000000000 values"),
        ],
    )
    def test_huge_block_header_rejected_before_allocating(self, tmp_path, text, message):
        # a block of the header's shape would take 3.6 TiB or 745 GiB
        path = tmp_path / "f.factors"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_factors(path)

    def test_malformed_number_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.factors"
        path.write_text("# rows 2 1\n0.5\nabc\n")
        with pytest.raises(ParseError, match="line 3"):
            read_factors(path)

    def test_negative_row_count_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.factors"
        path.write_text("# rows 1 1\n0.5\n# rows -1 1\n")
        with pytest.raises(ParseError, match="line 3"):
            read_factors(path)

    def test_non_finite_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.factors"
        path.write_text("# rows 2 2\n0.5 1.0\n0.25 nan\n")
        with pytest.raises(ParseError, match="line 3"):
            read_factors(path)

    def test_rank_mismatch_rejected_with_line(self, tmp_path):
        path = tmp_path / "f.factors"
        path.write_text("# rows 1 2\n0.5 1.0\n# rows 1 1\n0.5\n# rows 1 1\n0.5\n")
        with pytest.raises(ParseError, match="line 3: block rank 1"):
            read_factors(path)

    @pytest.mark.parametrize(
        "text, line", [("# rows 0 100000000000\n" * 3, 1), ("\n# rows 0 0\n" * 3, 2)]
    )
    def test_blocks_without_rows_rejected_at_the_first_header(self, tmp_path, text, line):
        path = tmp_path / "f.factors"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: no factor block holds a row$"):
            read_factors(path)

    @pytest.mark.parametrize(
        "text, line", [("# rows 1 0\n\n" * 3, 1), ("\n# rows 2 0\n\n\n" * 3, 2)]
    )
    def test_rank_zero_rejected_at_the_first_header(self, tmp_path, text, line):
        path = tmp_path / "f.factors"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: factor rank must be at least 1$"):
            read_factors(path)


def _format_records(ints, values, cap=None):
    """(what ``format_records`` returns, the bytes it wrote) for the records
    of the int64 matrix ``ints`` and the float64 matrix ``values``, into a
    buffer of ``cap`` bytes, or of the size the writers allocate when cap
    is None. The 64 bytes past cap must stay as they were."""
    ints = np.array(ints, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    (n, n_ints), n_values = ints.shape, values.shape[1]
    if cap is None:
        cap = n * data._record_bytes(n_ints, n_values)
    out = np.full(cap + 64, 0xAA, dtype=np.uint8)
    size = _native.LIBRARY.format_records(
        ints.ctypes.data, n_ints, values.ctypes.data, n_values, n, out.ctypes.data, cap
    )
    assert out[cap:].tobytes() == b"\xaa" * 64
    return size, out[: max(size, 0)].tobytes()


def _compiled_repr(value):
    """``value`` as ``format_records`` writes it alone, in a factor row and
    in a COO record, or None when it leaves the value to ``repr``."""
    row = _format_records([[]], [[value]])
    record = _format_records([[1, 22, 333]], [[value]])
    if row[0] < 0:
        assert row[0] == record[0] == -1
        return None
    assert row[1].endswith(b"\n") and record[1] == b"1 22 333 " + row[1]
    return row[1][:-1].decode("ascii")


def _in_compiled_range(value):
    # binary exponents -110 to 10 of a 53-bit mantissa, and both zeros
    return value == 0.0 or (math.isfinite(value) and 2.0**-58 <= abs(value) < 2.0**63)


@pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
class TestCompiledFormatter:
    """``format_records`` against ``repr``, value by value in both record
    shapes, and the writers file by file."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_hypothesis_floats_match_repr_or_fall_back(self, values):
        for v in values:
            got = _compiled_repr(v)
            if _in_compiled_range(v):
                assert got == repr(v)
            else:  # subnormal, huge, inf and nan take repr
                assert got is None

    def test_every_power_of_two_and_its_neighbours(self):
        powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        values = [v for p in powers for v in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]
        values += [-v for v in values]
        got = [_compiled_repr(v) for v in values]
        assert [g for g, v in zip(got, values) if g != repr(v)] == [
            None for v in values if not _in_compiled_range(v)
        ]
        # both range ends are reached: 2^-58 and the float below 2^63
        assert got[values.index(2.0**-58)] == repr(2.0**-58)
        assert got[values.index(math.nextafter(2.0**63, 0.0))] == "9.223372036854775e+18"

    @pytest.mark.parametrize(
        "value, text",
        [
            (1743829569681555.25, "1743829569681555.2"),  # tie: the even digit
            (2.9802322387695312e-08, "2.9802322387695312e-08"),
            (1e-4, "0.0001"),
            (1e-5, "1e-05"),
            (9999999999999998.0, "9999999999999998.0"),
            (1e16, "1e+16"),
            (1.0, "1.0"),
            (-2.5, "-2.5"),
            (123456.0, "123456.0"),
            (0.1, "0.1"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
        ],
    )
    def test_ties_and_layout_boundaries(self, value, text):
        assert repr(value) == text
        assert _compiled_repr(value) == text

    def test_values_of_every_size_match_repr(self):
        rng = np.random.default_rng(5)
        # log-uniform over the compiled range, 4e-18 to 8e18, with both neighbours
        logs = 10.0 ** rng.uniform(-17.4, 18.9, 4000)
        values = np.concatenate([logs, np.nextafter(logs, 0.0), np.nextafter(logs, np.inf)])
        values = values.tolist()
        values += [k / 1000 for k in range(1, 3000)] + [float(k) for k in range(1, 3000)]
        values += [-v for v in values]
        # all in range: one call per record shape
        texts = [repr(v) + "\n" for v in values]
        rows = _format_records([[]] * len(values), np.array(values)[:, None])
        assert rows[1] == "".join(texts).encode()
        records = _format_records([[1, 22, 333]] * len(values), np.array(values)[:, None])
        assert records[1] == "".join("1 22 333 " + text for text in texts).encode()

    def test_power_of_ten_table_rows_are_exact(self):
        # each row of G recomputed from exact integers, and the rows are the
        # decimal exponents k that the binary exponents in range take
        source = _native.SOURCE.read_text()
        define = {name: int(value) for name, value in re.findall(
            r"#define (FMT_MIN_EXP|FMT_MAX_EXP|G_KMAX) \(?(-?\d+)\)?", source)}
        body = re.search(r"\} G\[\] = \{(.*?)\n\};", source, re.S).group(1)
        rows = [(int(g1, 16), int(g0, 16), int(b)) for g1, g0, b in re.findall(
            r"\{(0x[0-9a-f]{16}), (0x[0-9a-f]{16}), (-?\d+)\}", body)]
        assert len(rows) == body.count("{")

        def floor_log(x, base):
            n = 0
            while x >= base:
                x, n = x / base, n + 1
            while x < 1:
                x, n = x * base, n - 1
            return n

        ks = set()
        for q in range(define["FMT_MIN_EXP"], define["FMT_MAX_EXP"] + 1):
            # a power of two's interval is three quarters as wide
            for width in (Fraction(2) ** q, Fraction(3, 4) * Fraction(2) ** q):
                k = floor_log(width, 10)
                ks.add(k)
                b = rows[define["G_KMAX"] - k][2]
                assert 2 <= q + b + 2 <= 5  # the shift h: (4c + 2) << h < 2**63
        assert sorted(ks) == list(range(define["G_KMAX"] - len(rows) + 1, define["G_KMAX"] + 1))
        for i, (g1, g0, b) in enumerate(rows):
            power = Fraction(10) ** (i - define["G_KMAX"])  # 10^-k
            g = math.floor(power * Fraction(2) ** (125 - b)) + 1
            assert (b, g1, g0) == (floor_log(power, 2), g >> 63, g & (2**63 - 1)), i

    def test_the_large_io_files_and_random_bits_match_repr(self):
        # the values fedcp generate writes for the 240k-entry benchmark tensor
        # (seed 4), its truth factors, and 200,000 random bit patterns in
        # range, in one call per record shape
        tensor, _, truths = data.generate_synthetic(data.SynthSpec(
            dims=(20000, 300, 800), rank_true=5, sparsity=5e-5, n_sites=5, seed=4))
        rng = np.random.default_rng(35)
        n = 200_000
        bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
                | rng.integers(1075 - 110, 1075 + 11, n).astype(np.uint64) << np.uint64(52)
                | rng.integers(0, 2**52, n, dtype=np.uint64))
        values = np.concatenate([tensor.values, *(t.A.ravel() for t in truths),
                                 truths[0].B.ravel(), truths[0].C.ravel(), bits.view(np.float64)])
        assert len(values) == 240_000 + 105_500 + n and all(map(_in_compiled_range, values))
        rows = values.reshape(-1, 5)
        want = "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist()).encode()
        assert _format_records([[]] * len(rows), rows) == (len(want), want)
        coords = np.resize(tensor.coords, (len(values), 3))
        records = zip(coords.tolist(), values.tolist())
        want = "".join(f"{i} {j} {k} {v!r}\n" for (i, j, k), v in records).encode()
        assert _format_records(coords, values[:, None]) == (len(want), want)

    def test_rows_layout_and_the_index_of_an_out_of_range_value(self):
        m = np.array([[0.5, -1.0, 3e-07], [2.0, 1e22, 0.1]])
        assert _format_records([[]], m[:1]) == (15, b"0.5 -1.0 3e-07\n")
        assert _format_records([[], []], m)[0] == -1 - 1  # the row holding 1e22
        assert _format_records([[]] * 3, np.empty((3, 0))) == (3, b"\n\n\n")  # rank 0

    def test_coo_records_and_the_index_of_an_out_of_range_value(self):
        coords = [[0, 12, 345], [9223372036854775807, 0, 7]]
        values = np.array([[1.5], [-2e-05]])
        text = b"0 12 345 1.5\n9223372036854775807 0 7 -2e-05\n"
        assert _format_records(coords, values) == (len(text), text)
        values[1] = 5e-324
        assert _format_records(coords, values)[0] == -2
        # ints of every length and both signs, at each power of ten
        edges = [sign * v for d in range(19) for v in (10**d - 1, 10**d) for sign in (1, -1)]
        coords = np.array(edges + [2**63 - 1, -(2**63)]).reshape(-1, 3)
        text = "".join(f"{i} {j} {k} 1.0\n" for i, j, k in coords.tolist()).encode()
        assert _format_records(coords, np.ones((len(coords), 1))) == (len(text), text)

    def test_the_writers_buffers_hold_the_longest_text_and_no_kernel_writes_past_cap(self):
        # the longest reprs in range, and the longest int64s
        longest = [-1.0000000000000002e-05, -1.2345678901234567e-17, -1.0000000000000002e16,
                   -0.00012345678901234567, -1234567890123456.8]
        assert max(len(repr(v)) for v in longest) == 23
        m = np.array([longest] * 3)
        no_ints = [[]] * 3
        coords = np.full((len(longest), 3), -(2**63), dtype=np.int64)
        values = np.array(longest)[:, None]
        rows = "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist()).encode()
        records = "".join(f"{-(2**63)} {-(2**63)} {-(2**63)} {v!r}\n" for v in longest).encode()
        # the sizes write_factors and write_coo allocate take the compiled path
        assert _format_records(no_ints, m) == (len(rows), rows)
        assert _format_records(coords, values) == (len(records), records)
        # too little room: the first record without room is named, nothing is
        # written past cap, and the caller hands the chunk to repr
        for cap in range(0, len(rows), 7):
            assert _format_records(no_ints, m, cap)[0] < 0
        for cap in range(0, len(records), 7):
            assert _format_records(coords, values, cap)[0] < 0
        # room is checked for 24-byte texts, one more than these values take
        assert _format_records(no_ints, m, len(rows))[0] == -1 - 2
        assert _format_records(coords, values, data._record_bytes(3, 1) - 1)[0] == -1

    @pytest.mark.parametrize("odd", [None, 5e-324, 1e300, -2.0**63])
    def test_writers_give_the_bytes_of_repr(self, tmp_path, without_library, odd):
        # with one value outside the compiled range, its chunk takes repr
        rng = np.random.default_rng(3)
        nnz = data._WRITE_CHUNK + 100
        lin = np.sort(rng.choice(60 * 30 * 50, size=nnz, replace=False))
        coords = np.stack(np.unravel_index(lin, (60, 30, 50)), axis=1)
        # inside the compiled range, 5e-18 to 5e18, unless odd is set
        values = rng.choice([-1.0, 1.0], nnz) * rng.uniform(0.5, 5.0, nnz)
        values *= 10.0 ** rng.integers(-17, 18, nnz)
        # the rows of A take two chunks
        factors = [rng.uniform(0.1, 1.0, (n, 4)) * 10.0 ** rng.integers(-5, 5, (n, 4))
                   for n in (data._WRITE_CHUNK + 7, 5, 6)]
        factors[2] = np.asfortranarray(factors[2])  # written row by row all the same
        if odd is not None:
            values[nnz - 50] = odd
            factors[0][-3, 1] = odd  # A's first chunk stays compiled
            factors[1][2, 3] = odd
        tensor = SparseTensorCOO((60, 30, 50), coords, values)
        result = FactorizationResult(*factors)

        def written():
            write_coo(tensor, tmp_path / "t.coo")
            write_factors(result, tmp_path / "f.factors")
            return (tmp_path / "t.coo").read_bytes(), (tmp_path / "f.factors").read_bytes()

        compiled = written()
        with without_library():
            assert written() == compiled
        records = zip(coords.tolist(), values.tolist())
        body = "".join(f"{i} {j} {k} {v!r}\n" for (i, j, k), v in records)
        assert compiled[0] == ("# dims 60 30 50\n" + body).encode()


class TestLoadConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.gamma == 5.0
        assert cfg.rank == 50
        assert cfg.rho == 1e-3
        assert cfg.delta == 1e-4
        assert cfg.tau == 1
        assert cfg.eta == 1e-2
        assert cfg.mu == 0.5
        assert cfg.clip == 1.0
        assert cfg.tol == 1e-4
        assert cfg.max_epochs == 100
        assert cfg.transfer_rate == 15e6

    def test_values_parse(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "rho = 1e-3\n"
            "dims = 100 30 40\n"
            "heterogeneity = 0:2 3:0,4\n"
            "fixed_epochs = 25\n"
            "shuffle_rows = true\n"
            "# comment line\n"
            "seed = 17  # trailing comment\n"
        )
        cfg = load_config(path)
        assert cfg.rho == 1e-3
        assert cfg.dims == (100, 30, 40)
        assert cfg.heterogeneity == {0: (2,), 3: (0, 4)}
        assert cfg.fixed_epochs == 25
        assert cfg.shuffle_rows is True
        assert cfg.seed == 17

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # '#' starts a comment only at the start of a line or after whitespace
        path = tmp_path / "cfg.txt"
        path.write_text(
            "  # indented comment line\n"
            "data_dir = run#1\n"
            "metrics_csv = out#2.csv   # trailing comment\n"
            "seed = 4\t# after a tab\n"
        )
        cfg = load_config(path)
        assert cfg.data_dir == "run#1"
        assert cfg.metrics_csv == "out#2.csv"
        assert cfg.seed == 4

    def test_repeated_heterogeneity_site_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("heterogeneity = 0:1 2:0 0:2\n")
        with pytest.raises(ConfigError, match="'heterogeneity': site 0 is listed twice"):
            load_config(path)

    def test_infinite_rho_allowed(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho = inf\n")
        assert math.isinf(load_config(path).rho)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.txt"
        for key, value in (("learning_rate", "0.1"), ("prox_threshold", "mu")):
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(path)

    def test_type_mismatch_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("tau = three\n")
        with pytest.raises(ConfigError, match="tau"):
            load_config(path)

    def test_negative_gamma_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma = -1\n")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    def test_out_of_domain_delta_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("delta = 1\n")
        with pytest.raises(ConfigError, match="delta"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dims", "0 30 40"),  # reported as dims, not as a site count above dims[0]
            ("rank_true", "0"),
            ("sparsity", "0"),
            ("heterogeneity", "7:0"),
            ("value_noise_std", "-1"),
            ("value_noise_std", "inf"),
            ("rank", "0"),
            ("sites", "0"),
            ("sites", "5001"),
            ("eta", "0"),
            ("eta", "nan"),
            ("eta", "inf"),
            ("gamma", "-1"),
            ("gamma", "inf"),
            ("mu", "-1"),
            ("mu", "inf"),
            ("tau", "0"),
            ("clip", "0"),
            ("rho", "0"),
            ("delta", "1"),
            ("tol", "0"),
            ("max_epochs", "-1"),
            ("fixed_epochs", "-1"),
            ("transfer_rate", "0"),
            ("seed", "-1"),
        ],
    )
    def test_out_of_domain_value_rejected_by_name(self, tmp_path, key, value):
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_every_owned_key_reaches_its_object(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "dims = 60 20 30\nrank_true = 4\nsparsity = 0.01\nsites = 3\n"
            "heterogeneity = 1:2\nseed = 5\nvalue_noise_std = 0.25\n"
            "eta = 0.03\ngamma = 2\nmu = 0.25\ntau = 3\nclip = 0.5\n"
            "rho = 0.5\ndelta = 1e-6\n"
        )
        cfg = load_config(path)
        built = {
            SynthSpec: cfg.synth_spec(),
            SolverParams: cfg.solver_params(),
            PrivacyParams: cfg.privacy_params(),
        }
        assert built[SynthSpec] == SynthSpec(
            dims=(60, 20, 30), rank_true=4, sparsity=0.01, n_sites=3,
            heterogeneity={1: (2,)}, seed=5, value_noise_std=0.25,
        )
        assert built[SolverParams] == SolverParams(eta=0.03, gamma=2.0, mu=0.25, tau=3, clip=0.5)
        assert built[PrivacyParams] == PrivacyParams(rho=0.5, delta=1e-6)
        for cls, obj in built.items():  # every field was moved off its default
            default = cls()
            assert all(getattr(obj, f.name) != getattr(default, f.name) for f in fields(cls))

    def test_defaults_are_the_objects_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.synth_spec() == SynthSpec()
        assert cfg.solver_params() == SolverParams()
        assert cfg.privacy_params() == PrivacyParams()

    def test_readme_example_config_matches_the_fields(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        settings = [line.split("#")[0] for line in block.splitlines()]
        keys = [text.split("=")[0].strip() for text in settings if "=" in text]
        assert keys == [f.name for f in fields(ExperimentConfig)]
        path = tmp_path / "cfg.txt"
        path.write_text(block)
        assert load_config(path) == ExperimentConfig()

    def test_overrides_revalidate(self):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError):
            config_overrides(cfg, eta=-5.0)
        assert config_overrides(cfg, seed=9).seed == 9
