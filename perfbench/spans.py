"""Span tracing from outside fedcp.

A traced run swaps timing wrappers into the module and class attributes
that fedcp's own callers look up at call time (``run_round`` calls
``run_local_epoch`` through ``fedcp.federation``'s globals, ``cmd_run``
calls ``data.read_coo``, and so on), and puts the originals back on exit.
No file under ``src/`` changes, and an untraced run wraps nothing.

Every span records its wall interval (``time.perf_counter``) and the CPU
time of the thread that ran it (``time.thread_time``). Busy time of a layer
is thread CPU time: a pool thread that waits for the interpreter lock is
not on a CPU, so overlapping wall intervals do not count the same second
twice. Parents come from a per-thread stack; a span that starts on a pool
thread with an empty stack takes the enclosing ``run_round`` as parent.
"""

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import fedcp.cli
import fedcp.data
import fedcp.federation
import fedcp.solver
from fedcp.federation import RoundMessage
from fedcp.privacy import PrivacyAccountant


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    cpu: float
    count: int = 0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient = None  # the open run_round span, parent of pool-thread spans

    def call(self, name, fn, args=(), kwargs=None, count=None, ambient=False):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``count(args, result)`` gives the span's work count. With
        ``ambient`` set, spans opened on other threads during the call take
        this span as parent.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._ambient
        stack.append(span_id)
        outer = self._ambient
        if ambient:
            self._ambient = span_id
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            cpu1 = time.thread_time()
            stack.pop()
            if ambient:
                self._ambient = outer
            span = Span(span_id, parent, name, threading.get_ident(), t0, t1, cpu1 - cpu0)
            self.spans.append(span)
        if count is not None:
            span.count = count(args, result)
        return result

    def wrap(self, fn, name, count=None, ambient=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, ambient)

        return traced

    def dump(self, path, header):
        """Write a header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _entries(args, result):
    state, _, params = args[:3]
    return state.tensor.nnz * params.tau


def _noise_values(args, result):
    return result.size if args[1] > 0 else 0


def _one(args, result):
    return 1


# (owner, attribute, span name, work count, ambient parent for pool threads)
TARGETS = [
    (fedcp.federation, "run_round", "federation.run_round", None, True),
    (fedcp.federation, "run_local_epoch", "solver.run_local_epoch", _entries, False),
    (fedcp.federation, "build_upload", "federation.build_upload", None, False),
    (fedcp.federation, "perturb_matrix", "privacy.perturb_matrix", _noise_values, False),
    (fedcp.federation, "server_update", "federation.server_update", None, False),
    (fedcp.federation, "pooled_rmse", "federation.pooled_rmse", None, False),
    (fedcp.federation, "factor_snapshot", "federation.factor_snapshot", None, False),
    (fedcp.federation, "has_converged", "federation.has_converged", None, False),
    (fedcp.solver, "prox_l21", "solver.prox_l21", None, False),
    (fedcp.solver, "beta_lipschitz", "solver.beta_lipschitz", None, False),
    (PrivacyAccountant, "record", "privacy.record", _one, False),
    (PrivacyAccountant, "epsilon", "privacy.epsilon", None, False),
    (RoundMessage, "to_bytes", "federation.to_bytes", _one, False),
    (RoundMessage, "from_bytes", "federation.from_bytes", _one, False),
    (fedcp.data, "generate_synthetic", "data.generate_synthetic", None, False),
    (fedcp.data, "partition_rows", "data.partition_rows", None, False),
    (fedcp.data, "write_coo", "data.write_coo", lambda args, result: args[0].nnz, False),
    (fedcp.data, "read_coo", "data.read_coo", lambda args, result: result.nnz, False),
    (fedcp.data, "write_factors", "data.write_factors", None, False),
    (fedcp.cli, "main", "cli.main", None, False),
    (fedcp.cli, "run_experiment", "cli.run_experiment", None, False),
    (fedcp.cli, "write_metrics_csv", "cli.write_metrics_csv", None, False),
]


@contextmanager
def installed(tracer):
    """Swap the wrappers in for the duration of the block, then restore the
    exact original objects (a classmethod stays the same descriptor)."""
    saved = []
    try:
        for owner, attr, name, count, ambient in TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, name, count, ambient))
            else:
                wrapped = tracer.wrap(raw, name, count, ambient)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def tail(samples):
    """The highest order statistic with at least ten samples above it, and
    its percentile; the maximum (percentile 100) when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Analysis:
    """Per-layer figures from one traced phase.

    Root spans are named ``setup`` and ``run``; times and counts are given
    per workload execution, that is per set-up plus per run step.
    """

    def __init__(self, spans):
        self.spans = spans
        by_id = {s.id: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
        self.phase = {}
        for s in spans:
            root = s
            while root.parent is not None:
                root = by_id[root.parent]
            self.phase[s.id] = root.name
        self.executions = {
            name: sum(1 for s in spans if s.parent is None and s.name == name)
            for name in ("setup", "run")
        }

    def self_cpu(self, span):
        """CPU time of the span minus that of its children on the same thread."""
        inner = sum(c.cpu for c in self.children.get(span.id, ()) if c.thread == span.thread)
        return span.cpu - inner

    def _per_execution(self, names, value, phase):
        totals = {"setup": 0.0, "run": 0.0}
        for s in self.spans:
            if s.name in names and (phase is None or self.phase[s.id] == phase):
                totals[self.phase[s.id]] += value(s)
        return sum(totals[p] / self.executions[p] for p in totals if self.executions[p])

    def cpu(self, *names, phase=None):
        return self._per_execution(names, lambda s: s.cpu, phase)

    def self_time(self, *names, phase=None):
        return self._per_execution(names, self.self_cpu, phase)

    def count(self, *names, phase=None):
        return self._per_execution(names, lambda s: s.count, phase)

    def walls(self, name):
        return [s.wall for s in self.spans if s.name == name]

    def site_concurrency(self):
        """Summed CPU of site work over the wall time of each round's site phase."""
        site_names = ("solver.run_local_epoch", "federation.build_upload")
        busy = wall = 0.0
        for r in (s for s in self.spans if s.name == "federation.run_round"):
            work = [c for c in self.children.get(r.id, ()) if c.name in site_names]
            if work:
                busy += sum(c.cpu for c in work)
                wall += max(c.end for c in work) - min(c.start for c in work)
        return busy / wall if wall else 0.0


def layer_metrics(tracer, untraced_run_s, traced_run_s):
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    a = Analysis(tracer.spans)
    run_wall = statistics.fmean(a.walls("run"))
    solver_cpu = a.cpu("solver.run_local_epoch")
    coo_cpu = a.cpu("data.write_coo", "data.read_coo")
    rounds_ms = [w * 1e3 for w in a.walls("federation.run_round")]
    tail_ms, tail_pct = tail(rounds_ms) if rounds_ms else (0.0, 100.0)
    return {
        "solver.local_epoch_s": (a.self_time("solver.run_local_epoch"), "s"),
        "solver.entries_per_s": (
            a.count("solver.run_local_epoch") / solver_cpu if solver_cpu else 0.0, "1/s"
        ),
        "solver.prox_s": (a.cpu("solver.prox_l21"), "s"),
        "solver.beta_s": (a.cpu("solver.beta_lipschitz"), "s"),
        "solver.share": (a.cpu("solver.run_local_epoch", phase="run") / run_wall, "ratio"),
        "privacy.perturb_s": (a.cpu("privacy.perturb_matrix"), "s"),
        "privacy.noise_values": (a.count("privacy.perturb_matrix"), "count"),
        "privacy.ledger_s": (a.cpu("privacy.record", "privacy.epsilon"), "s"),
        "privacy.ledger_records": (a.count("privacy.record"), "count"),
        "federation.rounds": (len(rounds_ms), "count"),
        "federation.round_ms_p50": (statistics.median(rounds_ms) if rounds_ms else 0.0, "ms"),
        "federation.round_ms_tail": (tail_ms, "ms"),
        "federation.round_tail_pct": (tail_pct, "%"),
        "federation.round_self_s": (a.self_time("federation.run_round"), "s"),
        "federation.upload_s": (a.self_time("federation.build_upload"), "s"),
        "federation.server_update_s": (a.cpu("federation.server_update"), "s"),
        "federation.rmse_s": (a.cpu("federation.pooled_rmse"), "s"),
        "federation.converge_s": (
            a.cpu("federation.factor_snapshot", "federation.has_converged"), "s"
        ),
        "federation.codec_s": (a.cpu("federation.to_bytes", "federation.from_bytes"), "s"),
        "federation.codec_calls": (
            a.count("federation.to_bytes", "federation.from_bytes"), "count"
        ),
        "federation.site_concurrency": (a.site_concurrency(), "ratio"),
        "data.generate_s": (a.self_time("data.generate_synthetic"), "s"),
        "data.partition_s": (a.cpu("data.partition_rows"), "s"),
        "data.write_coo_s": (a.cpu("data.write_coo"), "s"),
        "data.read_coo_s": (a.cpu("data.read_coo"), "s"),
        "data.write_factors_s": (a.cpu("data.write_factors"), "s"),
        "data.coo_entries_per_s": (
            a.count("data.write_coo", "data.read_coo") / coo_cpu if coo_cpu else 0.0, "1/s"
        ),
        "cli.self_s": (
            a.self_time("cli.main", phase="run") + a.cpu("cli.write_metrics_csv", phase="run"),
            "s",
        ),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
    }
