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
    assert entry["per_layer"]["solver.entries_per_s"] == {
        "unit": "1/s", "median": 20.0, "q1": 15.0, "q3": 25.0, "n": 3,
        "values": [10.0, 30.0, 20.0],
    }
    assert (entry["attempted"], entry["failed"], entry["correct"]) == (52, 1, False)
    one = bench_file.summarize([_result(5.0)], [])
    assert (one["end_to_end"]["run_s"]["median"], one["end_to_end"]["run_s"]["q1"]) == (5.0, 5.0)
    assert one["per_layer"] == {} and one["correct"]


def _sources(tree, python, c_lines):
    """``src/fedcp`` in ``tree``: a file of n lines for each name: n in
    ``python`` and an ``_sgd.c`` of ``c_lines`` lines."""
    src = tree / "src" / "fedcp"
    src.mkdir(parents=True)
    for name, n in {**python, "_sgd.c": c_lines}.items():
        (src / name).write_text("x = 1\n" * n)


def _checkouts(tmp_path, monkeypatch, parent_name):
    """(this checkout, the parent's) in tmp_path: bench_file's root is moved
    to a directory ``change`` that holds a copy of BENCHMARK.json; the
    change's sources have one line more than the parent's."""
    change = tmp_path / "change"
    _sources(change, {"a.py": 3}, 2)
    _sources(tmp_path / parent_name, {"a.py": 2}, 2)
    shutil.copy(_PATH.parents[1] / "BENCHMARK.json", change)
    monkeypatch.setattr(bench_file, "ROOT", str(change))
    return str(change), str(tmp_path / parent_name)


def test_traced_runs_pair_the_first_three_seeds_in_alternating_order(tmp_path, monkeypatch):
    calls = []
    change, parent = _checkouts(tmp_path, monkeypatch, "parent")

    def run_bench(tree, workload, seed, seconds, trace):
        calls.append((trace, seed, workload, "parent" if tree == parent else "change"))
        if trace:
            return _MACHINE, _traced(float(seed))
        return _MACHINE, _result(seed / 100)

    monkeypatch.setattr(bench_file, "run_bench", run_bench)
    monkeypatch.setattr(bench_file, "tier1", lambda tree: {"wall_s": 1.0})
    out = tmp_path / "bench.json"
    for seeds, traced in (("5-9", [5, 6, 7]), ("5,6", [5, 6])):
        calls.clear()
        assert bench_file.main(["--out", str(out), "--seeds", seeds, "--parent", parent]) == 0
        written = json.loads(out.read_text())
        assert {side: tree["path"] for side, tree in written["trees"].items()} == {
            "change": change, "parent": parent}
        assert {side: tree["src_lines"] for side, tree in written["trees"].items()} == {
            "change": {"python": {"a.py": 3}, "python_total": 3, "c": 2},
            "parent": {"python": {"a.py": 2}, "python_total": 2, "c": 2}}
        for name, entry in written["workloads"].items():
            for trace, seed_list in ((0, bench_file.parse_seeds(seeds)), (1, traced)):
                # each seed's pair, the parent first at the first seed
                sides = [side for t, _, w, side in calls if t == trace and w == name]
                assert sides == [s for n in range(len(seed_list))
                                 for s in (("parent", "change") if n % 2 == 0
                                           else ("change", "parent"))]
                assert [seed for t, seed, w, _ in calls
                        if t == trace and w == name][::2] == seed_list
            for side in ("change", "parent"):
                layer = entry[side]["per_layer"]["solver.entries_per_s"]
                assert layer["values"] == [float(seed) for seed in traced]
                assert layer["n"] == len(traced)
                assert entry[side]["end_to_end"]["run_s"]["n"] == len(bench_file.parse_seeds(seeds))


@pytest.mark.parametrize("parent_name", ["par", "parent-1"])
def test_a_parent_whose_path_differs_in_length_is_refused(tmp_path, monkeypatch, capsys,
                                                          parent_name):
    change, parent = _checkouts(tmp_path, monkeypatch, parent_name)
    monkeypatch.setattr(bench_file, "run_bench", lambda *args: pytest.fail("a run started"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exited:
        bench_file.main(["--out", str(out), "--seeds", "1-2", "--parent", parent])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"{parent} has {len(parent)} characters" in err
    assert f"this checkout's {change} has {len(change)}" in err
    assert not out.exists()


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


def test_a_tree_records_the_line_counts_of_its_sources(tmp_path):
    # newlines are counted, as wc -l counts them: a last line without one
    # is not; files outside src/fedcp or below it are not counted
    _sources(tmp_path, {"b.py": 4, "a.py": 1, "empty.py": 0}, 7)
    src = tmp_path / "src" / "fedcp"
    (src / "a.py").write_text("x = 1\ny = 2")
    (src / "__pycache__").mkdir()
    (src / "__pycache__" / "c.py").write_text("x\n")
    (src / "notes.txt").write_text("x\n")
    (tmp_path / "src" / "d.py").write_text("x\n")
    assert bench_file.src_lines(tmp_path) == {
        "python": {"a.py": 1, "b.py": 4, "empty.py": 0}, "python_total": 5, "c": 7}
    assert list(bench_file.src_lines(tmp_path)["python"]) == ["a.py", "b.py", "empty.py"]


def _metric(values):
    med, q1, q3 = bench_file.quartiles(values)
    return {"unit": "s", "median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _bench(run_s_parent, run_s_change):
    """A bench file's workloads entry of one workload, with ``run_s`` alone."""

    def side(run_s):
        return {"end_to_end": {"run_s": _metric(run_s)}}

    return {"workloads": {"w": {"change": side(run_s_change), "parent": side(run_s_parent)}}}


def test_table_counts_lower_pairs_and_chains_the_ratios(tmp_path):
    # a tie counts for neither side; BENCH_9 sorts before BENCH_10
    (tmp_path / "BENCH_10.json").write_text(json.dumps(_bench([0.004, 0.004], [0.002, 0.002])))
    (tmp_path / "BENCH_9.json").write_text(json.dumps(_bench([0.010, 0.020, 0.030],
                                                             [0.005, 0.020, 0.040])))
    (tmp_path / "BENCH_draft.json").write_text("not a bench file")
    assert [n for n, _ in bench_file.bench_files(tmp_path)] == [9, 10]
    assert bench_file.table(tmp_path).splitlines()[2:] == [
        "| 9 | w | 20.00 | 20.00 | 1/3 | 15.00–25.00 | 1.000 | 1.000 |",
        "| 10 | w | 4.00 | 2.00 | 2/2 | 4.00–4.00 | 0.500 | 0.500 |",
    ]


def test_committed_table_is_the_table_of_the_committed_files(capsys):
    root = _PATH.parents[1]
    files = bench_file.bench_files(root)
    rows = bench_file.table(root).splitlines()[2:]
    assert len(rows) == 3 * len(files)
    setup_rows = bench_file.table(root, "setup_s").splitlines()[2:]
    assert len(setup_rows) == 3 * len(files)
    # BENCH_32.json's readme_pooled set-up as CHANGES.md states it: 9.56 ->
    # 3.33 ms, lower in 10/10 pairs, the parent's quartiles 9.43-9.68 ms
    assert "| 32 | readme_pooled | 9.56 | 3.33 | 10/10 | 9.43–9.68 | 0.348 | 0.296 |" in setup_rows
    # BENCH_25.json's readme_pooled figures as CHANGES.md states them: 39.6
    # -> 30.9 ms, lower in 10/10 pairs, the parent's quartiles 38.6-41.7 ms;
    # chained over BENCH_16.json to BENCH_25.json to 0.72
    assert "| 25 | readme_pooled | 39.55 | 30.93 | 10/10 | 38.56–41.74 | 0.782 | 0.718 |" in rows
    assert bench_file.main(["--table"]) == 0
    assert capsys.readouterr().out == (root / "BENCH_TABLE.md").read_text(encoding="utf-8")
