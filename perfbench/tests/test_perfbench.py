"""Tests of the benchmark itself, on the tiny sizes of ``--smoke``.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402
from fedcp import PrivacyParams, SolverParams, SynthSpec, generate_synthetic  # noqa: E402
from fedcp import federation  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "machine" in json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_without_the_program_the_bench_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = bench("--workload", "small_rounds", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_installed_wrappers_are_removed_on_exit_even_after_an_error():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with spans.installed(tracer):
            for owner, attr, raw in originals:
                assert vars(owner)[attr] is not raw
            raise KeyError("boom")
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw


def test_pool_thread_spans_take_the_enclosing_round_as_parent():
    _, shards, _ = generate_synthetic(SynthSpec(dims=(40, 8, 9), rank_true=2, sparsity=0.05,
                                                n_sites=4, seed=5))
    tracer = spans.Tracer()
    with spans.installed(tracer), ThreadPoolExecutor(2) as pool:
        tracer.call("run", federation.run_experiment, (shards,), dict(
            rank=2, params=SolverParams(), priv=PrivacyParams(), seed=1,
            fixed_epochs=2, pool=pool,
        ))
    by_id = {s.id: s for s in tracer.spans}
    epochs = [s for s in tracer.spans if s.name == "solver.run_local_epoch"]
    assert len(epochs) == 2 * 4
    assert all(by_id[s.parent].name == "federation.run_round" for s in epochs)
    perturbs = [s for s in tracer.spans if s.name == "privacy.perturb_matrix"]
    assert all(by_id[s.parent].name == "federation.build_upload" for s in perturbs)
    analysis = spans.Analysis(tracer.spans)
    assert analysis.count("solver.run_local_epoch") == 2 * sum(sh.nnz for sh in shards)
    assert analysis.count("privacy.perturb_matrix") == 2 * 4 * (8 + 9) * 2


def test_tail_is_the_highest_value_with_ten_samples_above_it():
    assert spans.tail(range(100)) == (89, 90.0)
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
