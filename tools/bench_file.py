"""Write a BENCH_<n>.json file from runs of perfbench/run.py, or tabulate
the committed ones.

Usage, from the root of a checkout:

    python3 tools/bench_file.py --out BENCH_<n>.json --seeds 61-70 \
        --parent ../parent-checkout
    python3 tools/bench_file.py --table > BENCH_TABLE.md

For each seed and each workload that BENCHMARK.json declares, the script
runs ``python3 perfbench/run.py --trace 0`` in this checkout and in the
parent checkout, as one pair whose order alternates from seed to seed.
It then runs ``--trace 1`` the same way at the first three seeds (at
every seed when there are fewer): one traced run moves by a quarter from
run to run on some layers, so a per-layer figure needs more than one.
perfbench runs unchanged, as a subprocess, for the run length
BENCHMARK.json sets.

The parent checkout's absolute path must be as long as this checkout's,
or the script refuses to run. ``cli_large_io`` lands in one of two
allocator states, and its ``run_s`` follows the state: in one, each run
step faults in thousands of pages, most of them in ``read_coo``, and in
the other about none. Which state a run lands in can follow the length of
the checkout's path: identical copies of one commit whose paths differ by
two characters have landed in different states and read up to a quarter
apart, which a paired figure would take for the change's.

The file holds, per workload and checkout: the median and quartiles of
each end-to-end metric over the seeds, and of each per-layer metric over
the traced runs, each with every value in seed order; and the counts of
attempted and failed run steps. It also holds each checkout's path,
commit and the line counts of its ``src/fedcp/*.py`` and ``_sgd.c``
(the net size of ``src/``), the machine line perfbench prints, the load averages before and
after, the CPUs this process may run on, and the wall time of the tier-1
suite in each checkout. It records numbers and passes no verdict: whether
a change is better or worse is for the benchmark's own rule to judge.

``--table`` reads every ``BENCH_<n>.json`` at the root of this checkout
and prints one markdown table of ``run_s`` and one of ``setup_s``: per
file and workload, the parent's and the change's median, the pairs in
which the change read lower, the parent's quartiles, the ratio of the
medians and that ratio chained over the files so far. Only paired figures compare across files,
since the host's speed moves from one file to the next. A third table,
``src lines``, gives per file that records them the line counts of
``src/``: the Python total and ``_sgd.c``, parent to change, and each
module whose count changed. The per-layer
figures stay in each bench file: with three traced runs a side, the
quartile ranges of two samples of one distribution miss each other about
a third of the time, so a table of such gaps would list layers by chance.
"""

import argparse
import datetime
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TRACED_SEEDS = 3


def parse_seeds(text):
    """``61-70`` or ``1,4,9`` as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def parse_result(stdout):
    """The machine and result objects of perfbench's last two lines."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"perfbench printed {len(lines)} lines, not a machine and a result line")
    return json.loads(lines[-2])["machine"], json.loads(lines[-1])


def quartiles(values):
    """Median, first and third quartile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summarize(results, traced):
    """One checkout's entry for one workload: ``results`` are the untraced
    result objects, one per seed, and ``traced`` the traced ones."""

    def metrics(runs):
        out = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3 = quartiles(values)
            out[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3, "n": len(values), "values": values,
            }
        return out

    runs = results + traced
    return {
        "end_to_end": metrics(results),
        "per_layer": metrics(traced),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
    }


def run_bench(tree, workload, seed, seconds, trace):
    """Run perfbench once in checkout ``tree``; its machine and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_result(proc.stdout)


def tier1(tree):
    """Wall time and last line of the tier-1 suite in checkout ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "exit": proc.returncode}


def _git(tree, *args):
    """The stripped output of ``git args`` in ``tree``, or None when it fails."""
    try:
        proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def commit_of(tree):
    """``{"commit": HEAD, "dirty": whether a tracked file differs from it}``
    for checkout ``tree``; both None outside git."""
    commit = _git(tree, "rev-parse", "HEAD")
    if commit is None:
        return {"commit": None, "dirty": None}
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": None if status is None else status != ""}


def src_lines(tree):
    """The line counts, as ``wc -l`` gives them, of checkout ``tree``'s
    ``src/fedcp/*.py`` by file name and in total, and of its ``_sgd.c``."""

    def lines(path):
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")

    src = os.path.join(tree, "src", "fedcp")
    python = {os.path.basename(path): lines(path)
              for path in sorted(glob.glob(os.path.join(src, "*.py")))}
    return {"python": python, "python_total": sum(python.values()),
            "c": lines(os.path.join(src, "_sgd.c"))}


def bench_files(root=ROOT):
    """The ``BENCH_<n>.json`` files in ``root`` as (n, path), by n."""
    found = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


TABLE_METRICS = ("run_s", "setup_s")


def table(root=ROOT, metric="run_s"):
    """The markdown table of the end-to-end ``metric``, in seconds, over
    the bench files in ``root``."""
    lines = [
        "| file | workload | parent ms | change ms | pairs lower | parent q1–q3 ms "
        "| ratio | chained |",
        "|---|---|---|---|---|---|---|---|",
    ]
    chained = {}
    for n, path in bench_files(root):
        with open(path, encoding="utf-8") as fh:
            workloads = json.load(fh)["workloads"]
        for workload, sides in workloads.items():
            parent, change = (sides[side]["end_to_end"][metric] for side in ("parent", "change"))
            lower = sum(c < p for c, p in zip(change["values"], parent["values"]))
            ratio = change["median"] / parent["median"]
            chained[workload] = chained.get(workload, 1.0) * ratio
            lines.append(
                f"| {n} | {workload} | {parent['median'] * 1e3:.2f} | "
                f"{change['median'] * 1e3:.2f} | {lower}/{len(parent['values'])} | "
                f"{parent['q1'] * 1e3:.2f}–{parent['q3'] * 1e3:.2f} | {ratio:.3f} | "
                f"{chained[workload]:.3f} |"
            )
    return "\n".join(lines) + "\n"


def src_table(root=ROOT):
    """The markdown table of the line counts of ``src/`` over the bench
    files in ``root`` that record them."""
    lines = ["| file | Python | `_sgd.c` | modules changed |", "|---|---|---|---|"]
    for n, path in bench_files(root):
        with open(path, encoding="utf-8") as fh:
            trees = json.load(fh).get("trees", {})
        if "src_lines" not in trees.get("parent", {}):
            continue
        parent, change = (trees[side]["src_lines"] for side in ("parent", "change"))
        changed = ", ".join(
            f"`{name}` {parent['python'].get(name, 0):,} → {change['python'].get(name, 0):,}"
            for name in sorted(parent["python"].keys() | change["python"].keys())
            if parent["python"].get(name) != change["python"].get(name)
        )
        lines.append(f"| {n} | {parent['python_total']:,} → {change['python_total']:,} | "
                     f"{parent['c']:,} → {change['c']:,} | {changed} |")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="the BENCH_<n>.json file to write")
    parser.add_argument("--seeds", type=parse_seeds, help="61-70 or 1,4,9")
    parser.add_argument("--parent", help="a checkout of the parent commit, run in pairs")
    parser.add_argument("--table", action="store_true",
                        help="print the table of the committed bench files instead")
    args = parser.parse_args(argv)
    if args.table:
        sections = [(metric, table(metric=metric)) for metric in TABLE_METRICS]
        sections.append(("src lines", src_table()))
        sys.stdout.write("\n".join(f"## {head}\n\n{body}" for head, body in sections))
        return 0
    if None in (args.out, args.seeds, args.parent):
        parser.error("--out, --seeds and --parent are required without --table")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    trees = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    if len(trees["parent"]) != len(ROOT):
        parser.error(
            f"the parent checkout's path {trees['parent']} has {len(trees['parent'])} "
            f"characters and this checkout's {ROOT} has {len(ROOT)}: the allocator state "
            "of cli_large_io follows the path's length, so use paths of equal length"
        )
    names = list(trees)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    load_before = os.getloadavg()
    machine = None
    runs = {trace: {w: {t: [] for t in trees} for w in workloads} for trace in (0, 1)}
    for trace, seeds in ((0, args.seeds), (1, args.seeds[:TRACED_SEEDS])):
        for n, seed in enumerate(seeds):
            for workload in workloads:
                for side in names if n % 2 else names[::-1]:
                    machine, result = run_bench(trees[side], workload, seed, seconds, trace)
                    runs[trace][workload][side].append(result)
                    # a traced run reports the per-layer metrics only
                    shown = (f"run_s {result['metrics']['run_s']['value']:.4f}" if trace == 0
                             else "traced")
                    print(f"{workload} seed {seed} {side}: {shown}", file=sys.stderr)
    out = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seeds": args.seeds,
        "run_seconds": seconds,
        "trees": {side: dict(commit_of(tree), path=tree, src_lines=src_lines(tree))
                  for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in workloads:
        out["workloads"][workload] = {
            side: summarize(runs[0][workload][side], runs[1][workload][side]) for side in names
        }
    out["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    out["machine"] = dict(machine, loadavg_before=load_before, loadavg_after=os.getloadavg(),
                          affinity=sorted(os.sched_getaffinity(0)))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
