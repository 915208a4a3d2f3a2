"""The benchmark's workloads: inputs made from a seed, one run step, and the
checks every run step's outputs must pass.

Each workload is a closed loop with one caller: a federated run is a batch
job, so the next run step starts only when the previous one has finished.
Calls go through module attributes (``data.generate_synthetic``,
``cli.main``) so that a traced run sees the wrappers swapped in there.
"""

import contextlib
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from fedcp import cli, data, federation, solver
from fedcp.privacy import PrivacyParams

TRANSFER_RATE = 15e6  # bytes/second, the library default


@dataclass
class Outcome:
    """What one run step produced, in the form the checks compare."""

    metrics: list          # EpochMetrics per round
    artifacts: object      # factors in memory, or the bytes of the files written
    initial_rmse: float | None = None  # known only to in-memory runs


def protocol_problems(out, initial_rmse, epochs, j_dim, k_dim, rank, sites, rho):
    """Checks that hold for every run of the protocol, whatever its size."""
    problems = []
    if len(out.metrics) != epochs:
        return [f"{len(out.metrics)} rounds reported, expected {epochs}"]
    per_round = federation.comm_cost(j_dim, k_dim, rank, sites, 1, TRANSFER_RATE)[0]
    for m in out.metrics:
        if m.comm_bytes != per_round:
            problems.append(f"round {m.epoch}: comm_bytes {m.comm_bytes} != {per_round}")
        # the ledger sums 2*T*E releases and divides by T, so the last bits may differ
        if not math.isclose(m.rho_total, 2 * m.epoch * rho, rel_tol=1e-12):
            problems.append(f"round {m.epoch}: rho_total {m.rho_total!r} != 2*E*rho")
    if not out.metrics[-1].rmse < initial_rmse:
        problems.append(f"final rmse {out.metrics[-1].rmse!r} not below initial {initial_rmse!r}")
    return problems


def repeat_problems(out, first):
    """A run step must reproduce the first run step of the same seed exactly.

    Equal EpochMetrics give equal CSV bytes, since the CSV writes each float
    with ``repr``.
    """
    if first is None:
        return []
    problems = []
    if out.metrics != first.metrics:
        problems.append("per-round metrics differ from the first run step of this seed")
    if not _same(out.artifacts, first.artifacts):
        problems.append("outputs differ from the first run step of this seed")
    return problems


def _same(x, y):
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    return x == y


class InMemory:
    """``generate_synthetic`` then ``run_experiment``, without touching files."""

    def __init__(self, name, spec, rank, params, priv, epochs, setup_reps, instances=1,
                 workers=0):
        self.name = name
        self.spec = spec
        self.rank = rank
        self.params = params
        self.priv = priv
        self.epochs = epochs
        self.setup_reps = setup_reps
        self.instances = instances
        self.workers = workers

    def setup(self, seed):
        _, shards, _ = data.generate_synthetic(data.SynthSpec(seed=seed, **self.spec))
        return shards, seed

    def _run(self, inputs, pool):
        shards, seed = inputs
        return federation.run_experiment(
            shards, rank=self.rank, params=self.params, priv=self.priv,
            seed=seed, fixed_epochs=self.epochs, transfer_rate=TRANSFER_RATE, pool=pool,
        )

    def run(self, inputs):
        """The timed run step."""
        if not self.workers:
            return self._run(inputs, None)
        with ThreadPoolExecutor(self.workers) as pool:
            return self._run(inputs, pool)

    def outcome(self, result):
        factors = [(s.A, s.B, s.C) for s in result.sites]
        return Outcome(result.metrics, factors, result.initial_rmse)

    def reference(self, inputs):
        """The serial run of the same inputs, which a pooled run must equal."""
        return self.outcome(self._run(inputs, None)) if self.workers else None

    def check(self, out, reference, first):
        _, j_dim, k_dim = self.spec["dims"]
        problems = protocol_problems(
            out, out.initial_rmse, self.epochs, j_dim, k_dim, self.rank,
            self.spec["n_sites"], self.priv.rho,
        )
        if reference is not None and (
            out.metrics != reference.metrics or not _same(out.artifacts, reference.artifacts)
        ):
            problems.append("pooled run differs from the serial run of the same seed")
        return problems + repeat_problems(out, first)


class CommandLine:
    """``fedcp generate`` then ``fedcp run``, in process, in a work directory
    inside the checkout."""

    instances = 1  # the files of one instance fill the work directory

    CONFIG = (
        "dims = {dims}\nrank_true = {rank}\nsparsity = {sparsity}\nrank = {rank}\n"
        "sites = {sites}\nrho = {rho}\nfixed_epochs = {epochs}\nseed = {seed}\n"
        "data_dir = {work}/data\nmetrics_csv = {work}/metrics.csv\n"
        "factors_out = {work}/factors\n"
    )

    def __init__(self, name, dims, sparsity, rank, sites, rho, epochs, setup_reps, work):
        self.name = name
        self.dims = dims
        self.sparsity = sparsity
        self.rank = rank
        self.sites = sites
        self.rho = rho
        self.epochs = epochs
        self.setup_reps = setup_reps
        self.work = work
        self.config = os.path.join(work, "bench.cfg")

    def _cli(self, *argv):
        """Exit code of one in-process CLI call; its report is kept off the
        benchmark's standard output, whose last line is the result."""
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def setup(self, seed):
        os.makedirs(self.work, exist_ok=True)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.CONFIG.format(
                dims=" ".join(map(str, self.dims)), rank=self.rank, sparsity=self.sparsity,
                sites=self.sites, rho=self.rho, epochs=self.epochs, seed=seed, work=self.work,
            ))
        code = self._cli("generate", "--config", self.config)
        if code != 0:
            raise RuntimeError(f"fedcp generate exited with {code}")
        return self.config

    def run(self, config):
        """The timed run step: the exit code of ``fedcp run``."""
        return self._cli("run", "--config", config)

    def outcome(self, code):
        with open(os.path.join(self.work, "metrics.csv"), "rb") as fh:
            csv = fh.read()
        factor_dir = os.path.join(self.work, "factors")
        files = {}
        for name in sorted(os.listdir(factor_dir)):
            with open(os.path.join(factor_dir, name), "rb") as fh:
                files[name] = fh.read()
        return Outcome(_parse_csv(csv), (code, csv, files))

    def reference(self, config):
        """The initial RMSE, which the CLI does not print: the same sites the
        run starts from, rebuilt in memory from the same config."""
        cfg = data.load_config(config)
        tensor, _, _ = data.generate_synthetic(data.SynthSpec(
            dims=cfg.dims, rank_true=cfg.rank_true, sparsity=cfg.sparsity,
            n_sites=cfg.sites, seed=cfg.seed,
        ))
        sites = [
            solver.init_site_state(sh, cfg.rank, solver.derive_site_seed(cfg.seed, t), t)
            for t, sh in enumerate(data.partition_rows(tensor, cfg.sites))
        ]
        return federation.pooled_rmse(sites), [s.tensor.dims[0] for s in sites]

    def check(self, out, reference, first):
        initial_rmse, site_rows = reference
        code, _, files = out.artifacts
        problems = []
        if code != 2:
            problems.append(f"fedcp run exited with {code}, expected 2 (epoch limit)")
        expected = [f"site_{t}.factors" for t in range(self.sites)]
        if sorted(files) != sorted(expected):
            return problems + [f"factor files {sorted(files)}, expected {expected}"]
        problems += protocol_problems(
            out, initial_rmse, self.epochs, self.dims[1], self.dims[2], self.rank,
            self.sites, self.rho,
        )
        if first is None:
            factor_dir = os.path.join(self.work, "factors")
            for t, rows in enumerate(site_rows):
                f = data.read_factors(os.path.join(factor_dir, f"site_{t}.factors"))
                shapes = (f.A.shape, f.B.shape, f.C.shape)
                want = ((rows, self.rank), (self.dims[1], self.rank), (self.dims[2], self.rank))
                if shapes != want:
                    problems.append(f"site {t} factors have shapes {shapes}, expected {want}")
        return problems + repeat_problems(out, first)


def _parse_csv(blob):
    lines = blob.decode("utf-8").splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        return []
    rows = []
    for line in lines[1:]:
        e, rmse, nbytes, secs, rho, eps, eps_a = line.split(",")
        rows.append(federation.EpochMetrics(
            int(e), float(rmse), int(nbytes), float(secs), float(rho), float(eps), float(eps_a)
        ))
    return rows


def make(name, work, smoke=False):
    """The named workload; ``smoke`` shrinks every size so a run takes a second."""
    if name == "small_rounds":
        # acceptance criterion 09: per-round fixed costs and the sigma = 0 path
        return InMemory(
            name,
            spec=dict(dims=(45, 15, 18), rank_true=3, sparsity=5e-2, n_sites=3,
                      heterogeneity={2: (1,)}),
            rank=3,
            params=solver.SolverParams(eta=0.035, gamma=5.0, mu=0.6, tau=3, clip=1.0),
            priv=PrivacyParams(rho=math.inf),
            epochs=2 if smoke else 20,
            setup_reps=1,
            # 608 entries make the final RMSE vary by seed (quartile spread
            # about 14 %); its mean over 16 instances varies 3-5 %
            instances=2 if smoke else 16,
        )
    if name == "readme_pooled":
        # the README default scenario on a two-thread pool
        dims, sparsity, rank = ((200, 30, 40), 2e-3, 5) if smoke else ((5000, 300, 800), 1e-5, 50)
        return InMemory(
            name,
            spec=dict(dims=dims, rank_true=rank, sparsity=sparsity, n_sites=5),
            rank=rank,
            params=solver.SolverParams(),
            priv=PrivacyParams(rho=1e-3, delta=1e-4),
            epochs=2 if smoke else 3,
            setup_reps=3 if smoke else 9,
            workers=2,
        )
    if name == "cli_large_io":
        # ROADMAP's 1M-non-zero scenario scaled to a quarter: COO and factor I/O
        dims, sparsity = ((400, 30, 40), 5e-3) if smoke else ((20000, 300, 800), 5e-5)
        return CommandLine(
            name, dims=dims, sparsity=sparsity, rank=5, sites=5, rho=1e-3, epochs=1,
            setup_reps=1 if smoke else 3, work=work,
        )
    raise ValueError(f"unknown workload {name!r}")
