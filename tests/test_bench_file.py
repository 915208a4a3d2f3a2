"""tools/bench_file.py, on canned perfbench output: no benchmark runs here."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
_SPEC = importlib.util.spec_from_file_location("bench_file", _PATH)
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)

_MACHINE = {"nproc": 2, "cpu": "cpu", "python": "3.11.7", "numpy": "2.4.6",
            "blas": "openblas 0.3", "blas_threads": 2}


def _result(run_s, rss=70.0, attempted=10, failed=0):
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MiB"}},
    }


def _traced(entries_per_s):
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"solver.entries_per_s": {"value": entries_per_s, "unit": "1/s"}}}


def test_the_last_two_lines_are_the_machine_and_the_result():
    stdout = "noise\n" + json.dumps({"machine": _MACHINE}) + "\n" + json.dumps(_result(0.1)) + "\n"
    machine, result = bench_file.parse_result(stdout)
    assert machine == _MACHINE
    assert result == _result(0.1)
    with pytest.raises(ValueError, match="printed 1 lines"):
        bench_file.parse_result(json.dumps(_result(0.1)))


@pytest.mark.parametrize(
    "text, seeds", [("61-64", [61, 62, 63, 64]), ("1,4,9", [1, 4, 9]), ("7", [7])]
)
def test_seed_lists(text, seeds):
    assert bench_file.parse_seeds(text) == seeds


def test_summary_holds_quartiles_layer_medians_and_failures():
    results = [_result(4.0), _result(1.0), _result(3.0, failed=1), _result(2.0)]
    entry = bench_file.summarize(results, [_traced(10.0), _traced(30.0), _traced(20.0)])
    run_s = entry["end_to_end"]["run_s"]
    assert (run_s["median"], run_s["q1"], run_s["q3"]) == (2.5, 1.75, 3.25)
    assert run_s["n"] == 4 and run_s["values"] == [4.0, 1.0, 3.0, 2.0] and run_s["unit"] == "s"
    assert entry["per_layer"]["solver.entries_per_s"] == {"unit": "1/s", "median": 20.0, "n": 3}
    assert (entry["attempted"], entry["failed"], entry["correct"]) == (52, 1, False)
    one = bench_file.summarize([_result(5.0)], [])
    assert (one["end_to_end"]["run_s"]["median"], one["end_to_end"]["run_s"]["q1"]) == (5.0, 5.0)
    assert one["per_layer"] == {} and one["correct"]


@pytest.mark.skipif(shutil.which("git") is None, reason="no git")
def test_a_tree_records_its_commit_and_whether_tracked_files_changed(tmp_path, monkeypatch):
    # git never looks above tmp_path for a repository
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    outside = tmp_path / "outside"
    outside.mkdir()
    assert bench_file.commit_of(outside) == {"commit": None, "dirty": None}

    tree = tmp_path / "tree"
    tree.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args], cwd=tree,
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tree / "f.txt").write_text("1\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert bench_file.commit_of(tree) == {"commit": head, "dirty": False}
    (tree / "untracked.txt").write_text("x\n")
    assert bench_file.commit_of(tree) == {"commit": head, "dirty": False}
    (tree / "f.txt").write_text("2\n")
    assert bench_file.commit_of(tree) == {"commit": head, "dirty": True}
