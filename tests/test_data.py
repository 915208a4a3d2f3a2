"""Synthetic generation, COO files, partitioning, and config loading."""

import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcp import data
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
from fedcp.privacy import PrivacyParams
from fedcp.solver import SolverParams
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
        taken = np.array([4, 0, 7, 2, 5, 1], dtype=np.int64)
        fresh = data._sample_distinct(np.random.default_rng(0), 9, 3, taken=taken)
        assert sorted(fresh.tolist()) == [3, 6, 8]
        assert taken.tolist() == [4, 0, 7, 2, 5, 1]

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
        nnz = int(chunks * data._COO_WRITE_CHUNK)
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
])
_ODD_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "-0.0", "0", "nan", "-inf", "1e999", "1_0.5", "1.", ".5", "+.5e-3",
        "0x10", "1,5", "1.5e", "Infinity", "1\x00", "#x", "1#",
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


class TestBulkMatchesLineParser:
    """``read_coo`` parses in bulk and falls back to the line parser; either
    way it must give what the line parser alone gives."""

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
        ],
    )
    def test_table(self, tmp_path, body, expected):
        path = tmp_path / "t.coo"
        path.write_bytes((_DIFF_HEAD + body).encode("utf-8"))
        got = _outcome(read_coo, path)
        assert got == _outcome(_read_by_line, path)
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
        spec = SynthSpec(dims=(15, 6, 7), rank_true=2, sparsity=4e-2, n_sites=1, seed=8)
        tensor, _, _ = generate_synthetic(spec)
        path = tmp_path / "t.coo"
        write_coo(tensor, path)

        def no_line_parse(fh, dims):
            raise AssertionError("the bulk parse rejected a file write_coo wrote")

        monkeypatch.setattr(data, "_read_coo_lines", no_line_parse)
        back = read_coo(path)
        assert np.array_equal(back.coords, tensor.coords)
        assert back.values.tobytes() == tensor.values.tobytes()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        lines=_coo_body_lines(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        final=st.booleans(),
    )
    def test_generated_bodies(self, tmp_path_factory, lines, newline, final):
        path = tmp_path_factory.getbasetemp() / "fuzz.coo"
        body = newline.join(lines) + (newline if final and lines else "")
        head = "# dims {} {} {}\n".format(*_FUZZ_DIMS)
        path.write_bytes((head + body).encode("utf-8"))
        assert _outcome(read_coo, path) == _outcome(_read_by_line, path)


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
            ("rank", "0"),
            ("sites", "0"),
            ("sites", "5001"),
            ("eta", "0"),
            ("eta", "nan"),
            ("gamma", "-1"),
            ("mu", "-1"),
            ("tau", "0"),
            ("clip", "0"),
            ("rho", "0"),
            ("delta", "1"),
            ("tol", "0"),
            ("max_epochs", "-1"),
            ("fixed_epochs", "-1"),
            ("transfer_rate", "0"),
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
