"""fedcp benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload readme_pooled --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the machine. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json with tracing off. ``--trace 1`` spends half the time on
untraced run steps and half on traced ones, reports the per-layer metrics,
and writes the spans to ``.perfbench_out/``. ``--smoke`` shrinks every
workload so that a run takes a second or two. End-to-end times are scaled
to a reference speed of the host (see clock.py); standard error lists the
wall and scaled time of every timed call.

fedcp is imported from ``src/`` of the checkout; without it the benchmark
exits with code 1 and prints no result.
"""

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("small_rounds", "readme_pooled", "cli_large_io")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the bench's tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_fedcp():
    """Import fedcp from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import fedcp
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fedcp from {SRC}: {exc}") from None
    if os.path.dirname(os.path.dirname(os.path.abspath(fedcp.__file__))) != SRC:
        raise SystemExit(f"perfbench: fedcp was imported from {fedcp.__file__}, not {SRC}")


def machine():
    """The facts a timing depends on: cores, CPU, interpreter, numpy, BLAS."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
    }


def blas_threads(numpy):
    """OpenBLAS's thread count from the library numpy loaded, else None."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


class Loop:
    """Closed loop of run steps over a workload's input instances, taken in
    turn; checks every step's outputs."""

    def __init__(self, workload, inputs, references, clock):
        self.workload = workload
        self.clock = clock
        self.inputs = inputs
        self.references = references
        self.first = [None] * len(inputs)  # first good outcome of each instance
        self.attempted = 0
        self.failed = 0

    def run_for(self, seconds, tracer=None, inputs=None):
        """Run steps until ``seconds`` have passed and every instance ran
        once; returns the clock's index of each step that completed."""
        inputs = self.inputs if inputs is None else inputs
        run = self.workload.run if tracer is None else tracer.wrap(self.workload.run, "run")
        calls = []
        deadline = time.perf_counter() + seconds
        steps = 0
        while steps < len(inputs) or time.perf_counter() < deadline:
            k = steps % len(inputs)
            steps += 1
            self.attempted += 1
            try:
                raw, call = self.clock.time(run, inputs[k])
                calls.append(call)
                out = self.workload.outcome(raw)
                problems = self.workload.check(out, self.references[k], self.first[k])
            except Exception:  # a failed step is counted, and the loop goes on
                traceback.print_exc()
                self.failed += 1
                continue
            if problems:
                self.failed += 1
                print(f"perfbench: check failed: {'; '.join(problems)}", file=sys.stderr)
            elif self.first[k] is None:
                self.first[k] = out
        if not calls:
            raise SystemExit("perfbench: no run step completed")
        return calls

    @property
    def correct(self):
        return self.failed == 0 and all(out is not None for out in self.first)


def measure(workload, seed, seconds, trace):
    """Set up, run, check; returns the result object to print."""
    import spans
    from clock import Clock

    clock = Clock()
    seeds = [seed * workload.instances + k for k in range(workload.instances)]
    setups = []
    inputs = []
    for s in seeds:
        for _ in range(workload.setup_reps):
            x, call = clock.time(workload.setup, s)
            setups.append(call)
        inputs.append(x)
    loop = Loop(workload, inputs, [workload.reference(x) for x in inputs], clock)

    def median_scaled(calls, what):
        print(f"perfbench: {what}, wall/scaled seconds: "
              + " ".join(f"{clock.wall(c):.4f}/{clock.scaled(c):.4f}" for c in calls),
              file=sys.stderr)
        return statistics.median(clock.scaled(c) for c in calls)

    if not trace:
        steps = loop.run_for(seconds)
        done = [out for out in loop.first if out is not None]
        if not done:
            raise SystemExit("perfbench: no run step passed its checks")
        metrics = {
            "run_s": (median_scaled(steps, "run steps"), "s"),
            "setup_s": (median_scaled(setups, "set-ups"), "s"),
            # mean over the instances, each deterministic for its seed
            "rmse_final": (statistics.fmean(out.metrics[-1].rmse for out in done), "1"),
            "comm_bytes_per_round": (done[0].metrics[-1].comm_bytes, "B"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        untraced = loop.run_for(seconds / 2)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced_inputs = [tracer.call("setup", workload.setup, (s,)) for s in seeds]
            traced = loop.run_for(seconds / 2, tracer, traced_inputs)
        metrics = spans.layer_metrics(
            tracer,
            median_scaled(untraced, "untraced run steps"),
            median_scaled(traced, "traced run steps"),
        )
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"spans-{workload.name}-{seed}.jsonl"),
            {"workload": workload.name, "seed": seed, "machine": machine()},
        )
    return {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    import_fedcp()
    import workloads

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        workload = workloads.make(args.workload, work, smoke=args.smoke)
        result = measure(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"machine": machine()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
