"""End-to-end command-line behavior: files, CSV schema, and exit codes."""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fedcp
from fedcp import _native, cli
from fedcp.baseline import run_centralized_sgd
from fedcp.cli import CSV_HEADER, main
from fedcp.data import partition_rows, read_coo, read_factors, write_factors
from fedcp.privacy import compose_serial, zcdp_to_dp, zcdp_to_dp_approx
from fedcp.tensor import FactorizationResult, rmse


def _write_config(path, **overrides):
    base = {
        "dims": "40 12 14",
        "rank_true": "3",
        "sparsity": "5e-3",
        "rank": "3",
        "sites": "2",
        "eta": "0.02",
        "gamma": "1.0",
        "mu": "0.1",
        "tau": "2",
        "rho": "1e-3",
        "delta": "1e-4",
        "max_epochs": "6",
        "seed": "11",
    }
    base.update(overrides)
    lines = [f"{key} = {value}" for key, value in base.items()]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.txt"
    _write_config(cfg)
    return tmp_path, cfg


class TestGenerate:
    def test_writes_expected_files_deterministically(self, workspace):
        tmp_path, cfg = workspace
        assert main(["generate", "--config", str(cfg)]) == 0
        # the global tensor and one truth file per site; a run re-partitions
        # the global tensor, so no shard file is written
        written = sorted(p.name for p in (tmp_path / "data").iterdir())
        assert written == ["global.coo", "truth_site_0.factors", "truth_site_1.factors"]
        first = (tmp_path / "data" / "global.coo").read_bytes()
        tensor = read_coo(tmp_path / "data" / "global.coo")
        shards = partition_rows(tensor, 2)
        assert [sh.dims[0] for sh in shards] == [20, 20]
        assert sum(sh.nnz for sh in shards) == tensor.nnz
        for t, shard in enumerate(shards):
            truth = read_factors(tmp_path / "data" / f"truth_site_{t}.factors")
            assert rmse([shard], [truth]) == 0.0

        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "data" / "global.coo").read_bytes() == first

    def test_seed_flag_changes_output(self, workspace):
        tmp_path, cfg = workspace
        main(["generate", "--config", str(cfg)])
        first = (tmp_path / "data" / "global.coo").read_bytes()
        main(["generate", "--config", str(cfg), "--seed", "99"])
        assert (tmp_path / "data" / "global.coo").read_bytes() != first

    def test_shuffle_rows_leaves_generated_files_unchanged(self, workspace):
        # shuffle_rows only permutes rows before a run partitions them
        tmp_path, cfg = workspace
        main(["generate", "--config", str(cfg)])
        plain = {p.name: p.read_bytes() for p in (tmp_path / "data").iterdir()}
        _write_config(cfg, shuffle_rows="true")
        main(["generate", "--config", str(cfg)])
        assert {p.name: p.read_bytes() for p in (tmp_path / "data").iterdir()} == plain

    def test_bad_sparsity_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "bad.txt"
        _write_config(cfg, sparsity="0")
        assert main(["generate", "--config", str(cfg)]) == 1

    def test_too_few_cells_left_is_an_error(self, tmp_path, capsys):
        # 4 x 2 x 2 at sparsity 1 draws every cell, and site 0's 8 are zero
        cfg = tmp_path / "full.txt"
        _write_config(cfg, dims="4 2 2", rank_true="1", sparsity="1", heterogeneity="0:0")
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "fedcp: cannot draw 8 more distinct cells: 16 of 16 are taken\n"
        )

    def test_heterogeneity_that_zeroes_every_cell_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "dead.txt"
        _write_config(cfg, dims="28 24 22", rank_true="2", sparsity="0.5", sites="1",
                      heterogeneity="0:0,1")
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "fedcp: config: heterogeneity zeroes every component at every site: "
            "every cell is zero\n"
        )
        assert not (tmp_path / "data").exists()

    def test_out_of_memory_is_an_error(self, workspace, monkeypatch, capsys):
        # raised, not allocated: a real allocation this large could fill the host
        def no_memory(spec):
            raise MemoryError("Unable to allocate 7.3 TiB for an array with shape (1000000000000,)")

        _, cfg = workspace
        monkeypatch.setattr(cli.data, "generate_synthetic", no_memory)
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "fedcp: Unable to allocate 7.3 TiB for an array with shape (1000000000000,)\n"
        )


class TestRun:
    def test_csv_schema_and_reproducibility(self, workspace):
        tmp_path, cfg = workspace
        main(["generate", "--config", str(cfg)])
        rc = main(["run", "--config", str(cfg)])
        assert rc in (0, 2)
        csv_path = tmp_path / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) >= 2
        first_bytes = csv_path.read_bytes()

        assert main(["run", "--config", str(cfg)]) == rc
        assert csv_path.read_bytes() == first_bytes

    def test_epoch_column_has_no_gaps(self, workspace):
        tmp_path, cfg = workspace
        main(["generate", "--config", str(cfg)])
        main(["run", "--config", str(cfg)])
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        epochs = [int(line.split(",")[0]) for line in lines]
        assert epochs == list(range(1, len(epochs) + 1))

    def test_budget_column_tracks_the_ledger(self, workspace):
        # config rho is 1e-3 per matrix: rho_total after E epochs is 2 E rho
        tmp_path, cfg = workspace
        main(["generate", "--config", str(cfg)])
        main(["run", "--config", str(cfg)])
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        for line in lines:
            epoch, _, _, _, rho_total = line.split(",")[:5]
            assert float(rho_total) == pytest.approx(2 * int(epoch) * 1e-3, rel=1e-12)

    def test_budget_calculator_prints_the_run_columns(self, workspace, capsys):
        # one composition rule, two readers: a 5-site run's CSV and the
        # calculator give the same strings at every epoch
        tmp_path, cfg = workspace
        _write_config(cfg, sites="5", rho="1e-3", delta="1e-4", fixed_epochs="4")
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg)]) in (0, 2)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        from_run = [tuple(row.split(",")[4:]) for row in rows]
        capsys.readouterr()
        assert main(["budget", "--rho", "1e-3", "--delta", "1e-4", "--epochs", "4"]) == 0
        from_budget = []
        for line in capsys.readouterr().out.splitlines():
            fields = dict(part.split("=") for part in line.split())
            from_budget.append((fields["rho_total"], fields["eps_exact"], fields["eps_approx"]))
        assert len(from_run) == 4
        assert from_run == from_budget

    def test_unbounded_clip_needs_infinite_rho(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        unclipped = tmp_path / "unclipped.txt"
        _write_config(unclipped, clip="inf", max_epochs="2")
        assert main(["run", "--config", str(unclipped)]) == 1
        assert "clip = inf" in capsys.readouterr().err
        # without noise an unbounded clip is a plain unclipped run
        _write_config(unclipped, clip="inf", rho="inf", max_epochs="2")
        assert main(["run", "--config", str(unclipped)]) in (0, 2)

    def test_noise_scale_that_overflows_exits_1_naming_rho(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        capsys.readouterr()
        tiny = tmp_path / "tiny.txt"
        _write_config(tiny, rho="1e-320", fixed_epochs="1")
        assert main(["run", "--config", str(tiny)]) == 1
        assert capsys.readouterr() == ("", (
            "fedcp: rho = 1e-320 is too small: the noise scale sensitivity * sqrt(1 / (2 rho)) "
            "overflows\n"))

    def test_zero_max_epochs_gives_empty_body_and_limit_code(self, workspace, tmp_path):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        limit_cfg = tmp_path / "zero.txt"
        _write_config(limit_cfg, max_epochs="0")
        assert main(["run", "--config", str(limit_cfg)]) == 2
        assert (tmp_path / "metrics.csv").read_text().splitlines() == [CSV_HEADER]

    def test_exit_zero_on_convergence(self, workspace, tmp_path):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        easy = tmp_path / "easy.txt"
        # a huge tolerance converges in round 2, the first with an earlier upload to compare
        _write_config(easy, tol="1e6", max_epochs="5")
        assert main(["run", "--config", str(easy)]) == 0

    def test_out_of_memory_is_an_error(self, workspace, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("no memory for the site's round")

        _, cfg = workspace
        assert main(["generate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_experiment", no_memory)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "fedcp: no memory for the site's round\n"

    def test_missing_config_is_an_error(self):
        assert main(["run", "--config", "no-such-file.txt"]) == 1

    def test_missing_tensor_is_an_error(self, workspace):
        _, cfg = workspace
        assert main(["run", "--config", str(cfg)]) == 1

    def test_no_noise_single_site_matches_standalone_sgd(self, workspace, tmp_path):
        _, cfg = workspace
        single = tmp_path / "single.txt"
        _write_config(
            single, sites="1", gamma="0", mu="0", rho="1e-3", max_epochs="5",
            tol="1e-12", seed="11",
        )
        main(["generate", "--config", str(single)])
        assert main(["run", "--config", str(single), "--no-noise"]) in (0, 2)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        csv_rmse = [line.split(",")[1] for line in lines]

        tensor = read_coo(tmp_path / "data" / "global.coo")
        base = run_centralized_sgd(
            tensor, rank=3, eta=0.02, tau=2, epochs=len(lines), seed=11, clip=1.0
        )
        assert csv_rmse == [repr(v) for v in base.rmse_per_epoch]

    def test_readme_default_run_prints_no_warning(self, tmp_path):
        # a fresh process, so the default warning filter and stderr are the user's
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (tmp_path / "cfg.txt").write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        src = str(Path(fedcp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}

        def fedcp_cli(*argv):
            return subprocess.run(
                [sys.executable, "-c", "import sys; from fedcp.cli import main; sys.exit(main())",
                 *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            )

        assert fedcp_cli("generate", "--config", "cfg.txt").returncode == 0
        run = fedcp_cli("run", "--config", "cfg.txt", "--fixed-epochs", "2")
        assert (run.returncode, run.stderr) == (2, "")

    @pytest.mark.filterwarnings("default:learning rate exceeds:RuntimeWarning")
    def test_step_size_warning_is_one_line_in_config_terms(self, workspace, capsys):
        # rank-3 rows drawn from [0, 1) give some entry's step a curvature above 2/eta = 0.4
        tmp_path, cfg = workspace
        _write_config(cfg, eta="5.0", gamma="0.0", max_epochs="1")
        assert main(["generate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 2
        warned = capsys.readouterr().err.splitlines()
        # the text alone: no library file, line number or source line
        assert len(warned) == 1 and warned[0].startswith("fedcp: warning: learning rate")
        assert "'eta'" in warned[0] and "stability" in warned[0]

    # "default" shows a warning once per place it is raised from, as outside pytest
    @pytest.mark.filterwarnings("default:step too large:RuntimeWarning")
    def test_each_distinct_warning_is_printed_once(self, monkeypatch, capsys):
        def warning_budget(*args):
            for _ in range(2):  # the same text twice from one line
                warnings.warn("step too large", RuntimeWarning)
            warnings.warn("budget spent", UserWarning)
            return 0

        monkeypatch.setattr(cli, "cmd_budget", warning_budget)
        shown = warnings.showwarning
        assert main(["budget", "--rho", "1e-3"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "fedcp: warning: step too large",
            "fedcp: warning: budget spent",
        ]
        assert warnings.showwarning is shown

    def test_fixed_epochs_flag_runs_exact_count(self, workspace, tmp_path):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        main(["run", "--config", str(cfg), "--fixed-epochs", "3"])
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert len(lines) == 3

    def test_shuffle_rows_flag_changes_partition_not_data(self, workspace, tmp_path):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        main(["run", "--config", str(cfg), "--fixed-epochs", "2"])
        plain = (tmp_path / "metrics.csv").read_bytes()
        main(["run", "--config", str(cfg), "--fixed-epochs", "2", "--shuffle-rows"])
        shuffled = (tmp_path / "metrics.csv").read_bytes()
        assert plain != shuffled  # different shard membership, same tensor

    def test_reference_factors_report(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        main(["generate", "--config", str(cfg)])
        main(["run", "--config", str(cfg), "--no-noise"])
        capsys.readouterr()
        ref_cfg = tmp_path / "ref.txt"
        _write_config(ref_cfg, reference_factors="factors", factors_out="factors2")
        assert main(["run", "--config", str(ref_cfg), "--no-noise"]) in (0, 2)
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("fms_vs_reference=")]
        assert len(line) == 1
        assert float(line[0].split("=")[1]) == pytest.approx(1.0, abs=1e-9)


_PINNED_RUNS = {
    # the criterion-09 shape without noise: it stops by convergence after 4 rounds
    "criterion_09": (
        "dims = 45 15 18\nrank_true = 3\nsparsity = 5e-2\nheterogeneity = 2:1\nrank = 3\n"
        "sites = 3\neta = 0.035\ngamma = 5\nmu = 0.6\ntau = 3\nclip = 1\nrho = inf\n"
        "tol = 1e-2\nmax_epochs = 100\nseed = 21\n",
        [], 0, {
            "metrics.csv": "fe509fdb9130ae274af52d65a31db91c1d4cf09e37fd37c0c0ddbabaf1418eb1",
            "site_0.factors": "403acecd93a5ddeb38632e182f3d2a9b6d761be19e2041e7e6ccadd77728cdc2",
            "site_1.factors": "b8c17f9746d6769f4fec11c19dcaf5ae2a0335d1941eb590ef338b0c0197fe02",
            "site_2.factors": "d23e9ded3406aa65b6b051f2cba7a465a8d5389e6ff08f157aa1f6b0fd122a16",
        },
    ),
    # the README's default config, budget-first
    "readme_default": (
        "dims = 5000 300 800\nrank_true = 50\nsparsity = 1e-5\nrank = 50\nsites = 5\n"
        "eta = 1e-2\ngamma = 5\nmu = 0.5\ntau = 1\nclip = 1\nrho = 1e-3\ndelta = 1e-4\n"
        "tol = 1e-4\nmax_epochs = 100\nseed = 0\n",
        ["--fixed-epochs", "3"], 2, {
            "metrics.csv": "f88434a775dbccdda5dfb0e95b0d2cadc7a1c32af6c7e93d52bd17de381b8fe2",
            "site_0.factors": "5071a403c9fc75e14fda378cc61b91f914c51e564b3c430753a18509f017f5e8",
            "site_1.factors": "d08f723ce83a9b91860beacaec13ff98942c3eeeb05b3fdb2d8eb486984f9d5a",
            "site_2.factors": "bbeb13b6cf1009e83f1c767dd2354e7ddeff88d10393ab0d87522e7a3f9f5e1d",
            "site_3.factors": "1fe103221973907afcc467f9efa4a8e216f2f86c08118667dbc4d7edbd011761",
            "site_4.factors": "7deb5d0dc74f461b6d6d5a7b8b6011f922451085da43eb5b88960c84deae247d",
        },
    ),
}


# the files ``fedcp generate`` writes, with and without the library: the
# two configs of _PINNED_RUNS, one whose site 1 has every truth component
# zeroed and whose values carry noise (the zero-valued cells are resampled
# three times), and one dense enough that the sampler draws a second batch
_PINNED_GENERATE = {
    "criterion_09": (_PINNED_RUNS["criterion_09"][0], {
        "global.coo": "24543bafe92af56f1554c892ac70356128a727be40adb9ec879d57b6e11b82b1",
        "truth_site_0.factors": "b33d886b6a0da53484c379744b6b586205fb17c329f2c7467c82fdcde44e7d31",
        "truth_site_1.factors": "4682c7eea3aa0169476ae759ae5df83960390f8729ec51f4636647dcef5b99ef",
        "truth_site_2.factors": "db7520ccb68506a8f57a615632f38cade8916b1ec714b3021f5926e5177f17cb",
    }),
    "readme_default": (_PINNED_RUNS["readme_default"][0], {
        "global.coo": "f1f14c13a88f7819e5d55d6fa022dd90724c5bb61d2aed0639a82ba78ddd49d1",
        "truth_site_0.factors": "e451fd6850f652d25e8f69d0671810eee6af9b7bac8bc44735a97216a81ff8b4",
        "truth_site_1.factors": "dd1309bd08cc3666c3b99ef17823a844a49daf223b4826de710bbd3f84230ef3",
        "truth_site_2.factors": "4f4f8402cfe01a6d4a60b9f060007f0af5a0179723c2af913fae7222b92141f4",
        "truth_site_3.factors": "13f53fee935842e37f678e238e0c5871b45b1f4697dce6c819e2c99623877ff9",
        "truth_site_4.factors": "fd850393f71aabfdbde57a4d47db0965bd40b9899fc92beaa47ff52b6267f722",
    }),
    "noisy_resampled": (
        "dims = 30 6 7\nrank_true = 2\nsparsity = 0.1\nsites = 3\nheterogeneity = 1:0,1\n"
        "value_noise_std = 0.5\nseed = 5\n", {
            "global.coo": "ae256774ca960f22dbd81c50f196f172869846b163a1f3094d6a9d54badd64ed",
            "truth_site_0.factors": "f7e29d665522a50da6b48d363254bbf2c98019bf397dea4125fd3463d6e0e19f",
            "truth_site_1.factors": "321b886f120b05e47be60e88d4ddcb95dd74cc3d30185430d9f04bda2b13f8f6",
            "truth_site_2.factors": "115cfea367e9d17286da8df016feb7881aebc8a9a92049eed95b771226c0e7c6",
        },
    ),
    "dense": ("dims = 12 5 6\nrank_true = 2\nsparsity = 0.9\nsites = 2\nseed = 3\n", {
        "global.coo": "0a396683c1e6dbb67e97e79256fcb55a266a49c577bcf9efb808f30be80ae32d",
        "truth_site_0.factors": "bcd1cffc348fa16bff5ee024795b147e1f1aff422f6b1fec2a9ec2974dc4ea05",
        "truth_site_1.factors": "63c0884f781118cf27eda9fb094347fde15192d45ed1361db9d1023f9ccf6a23",
    }),
}


class TestPinnedBytes:
    """The metrics CSV and factor files of a budget-first run, and of a
    noise-free run that stops after round 2 or later, keep the bytes they had
    when the stop rule still read the sites' own factors; the files
    ``fedcp generate`` writes keep the bytes they had when the sampler
    sorted every draw."""

    @pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
    def test_files_match_their_digests(self, name, tmp_path, monkeypatch, capsys):
        config, flags, code, digests = _PINNED_RUNS[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(config)
        assert main(["generate", "--config", "cfg.txt"]) == 0
        assert main(["run", "--config", "cfg.txt", *flags]) == code
        written = [tmp_path / "metrics.csv", *sorted((tmp_path / "factors").iterdir())]
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == digests

    @pytest.mark.parametrize("name", sorted(_PINNED_GENERATE))
    def test_generated_files_match_their_digests(self, name, tmp_path, monkeypatch,
                                                 without_library):
        config, digests = _PINNED_GENERATE[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(config)

        def generated():
            assert main(["generate", "--config", "cfg.txt"]) == 0
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (tmp_path / "data").iterdir()}

        if _native.LIBRARY is not None:
            assert generated() == digests
        with without_library():
            assert generated() == digests


class TestEvaluate:
    def _factors(self, tmp_path, seed=0):
        rng = np.random.default_rng(seed)
        result = FactorizationResult(rng.random((5, 3)), rng.random((4, 3)), rng.random((6, 3)))
        path = tmp_path / f"f{seed}.factors"
        write_factors(result, path)
        return result, path

    def test_self_comparison_is_one(self, tmp_path, capsys):
        _, path = self._factors(tmp_path)
        assert main(["evaluate", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fms=")
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_permuted_copy_scores_one(self, tmp_path, capsys):
        result, path = self._factors(tmp_path, seed=1)
        perm = [2, 0, 1]
        permuted = FactorizationResult(result.A[:, perm], result.B[:, perm], result.C[:, perm])
        other = tmp_path / "perm.factors"
        write_factors(permuted, other)
        assert main(["evaluate", str(path), str(other)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0].split("=")[1]) == pytest.approx(1.0, abs=1e-9)
        assert out[1] == "permutation: 1 2 0"

    def test_zeroed_column_is_flagged(self, tmp_path, capsys):
        result, path = self._factors(tmp_path, seed=2)
        a = result.A.copy()
        a[:, 1] = 0.0
        other = tmp_path / "zeroed.factors"
        write_factors(FactorizationResult(a, result.B, result.C), other)
        assert main(["evaluate", str(path), str(other)]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split("=")[1]) < 1.0
        assert "zero-column" in out
        # the reference's zero column, and only it, makes a ratio infinite
        columns = out.splitlines()[2:]
        assert [" ratio=inf" in ln for ln in columns] == ["zero-column" in ln for ln in columns]

    def test_tiny_columns_are_not_flagged(self, tmp_path, capsys):
        # every weight, a product of three norms of 1e-110, underflows to 0
        tiny = FactorizationResult(*(np.full((n, 3), 1e-110 / math.sqrt(n)) for n in (5, 4, 6)))
        path = tmp_path / "tiny.factors"
        write_factors(tiny, path)
        assert main(["evaluate", str(path), str(path)]) == 0
        columns = capsys.readouterr().out.splitlines()[2:]
        assert len(columns) == 3 and all("lambda=0.0 " in line for line in columns)
        assert not any("zero-column" in line for line in columns)
        # the ratio is taken mode by mode, so the underflowed weights do not reach it
        assert all(line.endswith(" ratio=1.0") for line in columns)

    def test_rank_mismatch_is_an_error(self, tmp_path):
        _, path3 = self._factors(tmp_path, seed=3)
        rng = np.random.default_rng(4)
        other = tmp_path / "r2.factors"
        write_factors(
            FactorizationResult(rng.random((5, 2)), rng.random((4, 2)), rng.random((6, 2))),
            other,
        )
        assert main(["evaluate", str(path3), str(other)]) == 1

    def test_oversized_block_header_is_an_error(self, tmp_path, capsys):
        _, path = self._factors(tmp_path, seed=5)
        huge = tmp_path / "huge.factors"
        huge.write_text("# rows 100000000000 5\n0 0 0 0 0\n")
        assert main(["evaluate", str(path), str(huge)]) == 1
        assert "line 1: factor block truncated" in capsys.readouterr().err

    def test_blocks_without_rows_are_an_error(self, tmp_path, capsys):
        # a rank no row confirms: per-column arrays of it would take 745 GiB
        empty = tmp_path / "empty.factors"
        empty.write_text("# rows 0 100000000000\n" * 3)
        assert main(["evaluate", str(empty), str(empty)]) == 1
        assert capsys.readouterr().err == "fedcp: line 1: no factor block holds a row\n"

    def test_rank_zero_factors_are_an_error(self, tmp_path, capsys):
        # rows of no values: the scores would be means of empty slices
        zero = tmp_path / "zero.factors"
        zero.write_text("# rows 1 0\n\n" * 3)
        assert main(["evaluate", str(zero), str(zero)]) == 1
        assert capsys.readouterr() == ("", "fedcp: line 1: factor rank must be at least 1\n")


class TestBudget:
    def test_rho_mode_line_format(self, capsys):
        assert main(["budget", "--rho", "1e-3", "--delta", "1e-4", "--epochs", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        assert lines[0].startswith("epoch=1 rho_total=0.002 eps_exact=")
        last = dict(part.split("=") for part in lines[-1].split())
        assert last["epoch"] == "20"
        assert float(last["rho_total"]) == pytest.approx(0.04, rel=1e-9)
        assert float(last["eps_exact"]) == pytest.approx(1.253941703508117, abs=1e-9)
        assert float(last["eps_approx"]) == pytest.approx(1.2139417035081171, abs=1e-9)
        assert float(last["delta"]) == 1e-4

    def test_every_total_is_the_serial_composition_of_its_releases(self, capsys):
        rho = 1e-3 / 3  # not a sum of binary fractions, so the order of additions shows
        assert main(["budget", "--rho", repr(rho), "--delta", "1e-4", "--epochs", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 200
        for e, line in enumerate(lines, start=1):
            total = compose_serial([rho] * (2 * e))
            assert line == (
                f"epoch={e} rho_total={total!r} eps_exact={zcdp_to_dp(total, 1e-4)!r} "
                f"eps_approx={zcdp_to_dp_approx(total, 1e-4)!r} delta=0.0001"
            )

    def test_epsilon_mode_reports_rho(self, capsys):
        assert main(["budget", "--epsilon", "1.2", "--delta", "1e-4", "--epochs", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("rho_b=")
        assert float(lines[0].split("=")[1]) == pytest.approx(9.771625842823165e-4, abs=1e-12)

    def test_both_inputs_rejected(self):
        assert main(["budget", "--epsilon", "1.0", "--rho", "1e-3", "--epochs", "5"]) == 1

    def test_neither_input_rejected(self):
        assert main(["budget", "--epochs", "5"]) == 1

    def test_delta_one_rejected(self):
        assert main(["budget", "--rho", "1e-3", "--delta", "1", "--epochs", "5"]) == 1

    @pytest.mark.parametrize("flag", ["--epsilon", "--rho"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_budget_that_is_not_positive_rejected_by_flag(self, capsys, flag, value):
        assert main(["budget", flag, value, "--epochs", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"budget: {flag} must be positive, got {float(value)}\n"

    def test_runs_as_a_module(self, tmp_path):
        src = str(Path(fedcp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}

        def budget(module, *argv):
            return subprocess.run(
                [sys.executable, "-m", module, "budget", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            )

        for module in ("fedcp.cli", "fedcp"):
            ok = budget(module, "--rho", "1e-3", "--epochs", "1")
            assert ok.returncode == 0, ok.stderr
            assert ok.stdout.startswith("epoch=1 rho_total=")
            bad = budget(module, "--epsilon", "nan")
            assert bad.returncode == 1
            assert bad.stderr == "budget: --epsilon must be positive, got nan\n"

    @pytest.mark.parametrize("flag", ["--epsilon", "--rho"])
    def test_infinite_budget_accepted(self, capsys, flag):
        assert main(["budget", flag, "inf", "--epochs", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("epoch=2 rho_total=inf ")


class TestPublicApi:
    EXPORTS = {
        # the README's library entry points
        "SynthSpec", "generate_synthetic", "partition_rows", "SolverParams", "PrivacyParams",
        "run_experiment", "run_centralized_sgd", "fms", "rmse",
        # what their callers pass in or get back
        "load_config", "ExperimentConfig", "read_coo", "write_coo", "read_factors",
        "write_factors", "SparseTensorCOO", "FactorizationResult", "RunResult", "EpochMetrics",
        # the error types
        "ConfigError", "DimensionError", "NumericOverflowError", "ParseError", "ProtocolError",
    }

    def test_package_exports_the_run_api_and_the_readme_block_imports(self):
        public = {
            name for name, value in vars(fedcp).items()
            if not name.startswith("_") and not isinstance(value, type(fedcp))
        }
        assert public == self.EXPORTS
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        statement = re.search(r"from fedcp import \(.*?\)", readme, re.S).group(0)
        imported = {}
        exec(statement, imported)
        assert set(imported) - {"__builtins__"} <= self.EXPORTS
