"""Synthetic generation, COO files, partitioning, and config loading."""

import math

import numpy as np
import pytest

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
from fedcp.errors import ConfigError, ParseError
from fedcp.tensor import FactorizationResult, SparseTensorCOO, reconstruct_values, rmse


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
        tensor, _, truths = generate_synthetic(spec)
        assert rmse(tensor, truths) == 0.0

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


class TestPartitionRows:
    def _tensor(self):
        entries = [(i, 0, 0, float(i + 1)) for i in range(10)]
        return SparseTensorCOO.from_entries((10, 1, 1), entries)

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
        assert (1, 0, 0, 8.0) in list(shards[3].entries())

    def test_too_many_partitions(self):
        with pytest.raises(ValueError):
            partition_rows(self._tensor(), 11)

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
            assert SparseTensorCOO(tensor.dims, coords, values).same_entries(tensor)

    def test_permute_rows_keeps_entries(self):
        t = self._tensor()
        p = permute_rows(t, seed=5)
        assert p.dims == t.dims
        assert sorted(v for _, _, _, v in p.entries()) == sorted(
            v for _, _, _, v in t.entries()
        )


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
        assert list(t.entries()) == [(0, 0, 0, 1.5)]

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

    def test_infinite_rho_allowed(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho = inf\n")
        assert math.isinf(load_config(path).rho)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
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

    def test_overrides_revalidate(self):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError):
            config_overrides(cfg, eta=-5.0)
        assert config_overrides(cfg, seed=9).seed == 9
