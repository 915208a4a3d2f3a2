"""Write a BENCH_<n>.json file from runs of perfbench/run.py.

Usage, from the root of a checkout:

    python3 tools/bench_file.py --out BENCH_<n>.json --seeds 61-70 \
        --parent ../parent-checkout

For each seed and each workload that BENCHMARK.json declares, the script
runs ``python3 perfbench/run.py --trace 0`` in this checkout and in the
parent checkout, as one pair whose order alternates from seed to seed.
It then runs ``--trace 1`` once per workload and checkout, at the first
seed. perfbench runs unchanged, as a subprocess, for the run length
BENCHMARK.json sets.

The file holds, per workload and checkout: the median and quartiles of
each end-to-end metric over the seeds, with every value in seed order;
the per-layer metrics of the traced run; and the counts of attempted and
failed run steps. It also holds the machine line perfbench prints, the
load averages before and after, the CPUs this process may run on, and
the wall time of the tier-1 suite in each checkout. It records numbers
and passes no verdict: whether a change is better or worse is for the
benchmark's own rule to judge.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


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
    end_to_end = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3 = quartiles(values)
        end_to_end[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3, "n": len(values), "values": values,
        }
    per_layer = {}
    for name in (traced[0]["metrics"] if traced else {}):
        per_layer[name] = {
            "unit": traced[0]["metrics"][name]["unit"],
            "median": statistics.median(t["metrics"][name]["value"] for t in traced),
            "n": len(traced),
        }
    runs = results + traced
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="61-70 or 1,4,9")
    parser.add_argument("--parent", required=True,
                        help="a checkout of the parent commit, run in pairs")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    trees = {"change": ROOT, "parent": os.path.abspath(args.parent)}
    names = list(trees)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    load_before = os.getloadavg()
    machine = None
    untraced = {w: {t: [] for t in trees} for w in workloads}
    for n, seed in enumerate(args.seeds):
        for workload in workloads:
            for side in names if n % 2 else names[::-1]:
                machine, result = run_bench(trees[side], workload, seed, seconds, 0)
                untraced[workload][side].append(result)
                print(f"{workload} seed {seed} {side}: run_s "
                      f"{result['metrics']['run_s']['value']:.4f}", file=sys.stderr)
    out = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seeds": args.seeds,
        "run_seconds": seconds,
        "trees": {side: commit_of(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in workloads:
        entry = {}
        for side in names:
            _, traced = run_bench(trees[side], workload, args.seeds[0], seconds, 1)
            entry[side] = summarize(untraced[workload][side], [traced])
        out["workloads"][workload] = entry
    out["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    out["machine"] = dict(machine, loadavg_before=load_before, loadavg_after=os.getloadavg(),
                          affinity=sorted(os.sched_getaffinity(0)))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
