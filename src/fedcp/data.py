"""Synthetic tensor generation, COO text files, row partitioning, and
flat-text experiment configuration.

COO file format: UTF-8 text, first line ``# dims I J K``, then one
``i j k value`` record per line; ``#`` starts a comment. Factor files hold
three blocks (A, B, C), each ``# rows <n> <R>`` followed by n rows of R
values. Config files are ``key = value`` lines.
"""

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ParseError
from .solver import PROX_PLAIN, PROX_SCALED
from .tensor import FactorizationResult, SparseTensorCOO


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for an exactly low-rank sparse tensor split across sites.

    ``heterogeneity`` maps a site id to the truth components zeroed inside
    that site's patient block, so those components are absent from its data.
    """

    dims: tuple[int, int, int] = (5000, 300, 800)
    rank_true: int = 50
    sparsity: float = 1e-5
    n_sites: int = 5
    heterogeneity: dict = field(default_factory=dict)
    seed: int = 0
    value_noise_std: float = 0.0
    shuffle_rows: bool = False

    def __post_init__(self):
        if not 0 < self.sparsity <= 1:
            raise ValueError("sparsity must lie in (0, 1]")
        if self.rank_true < 1:
            raise ValueError("rank_true must be at least 1")
        if not 1 <= self.n_sites <= self.dims[0]:
            raise ValueError("site count must lie in [1, patient rows]")
        if self.value_noise_std < 0:
            raise ValueError("value_noise_std must be non-negative")
        for site, cols in self.heterogeneity.items():
            if not 0 <= site < self.n_sites:
                raise ValueError(f"heterogeneity names unknown site {site}")
            if any(not 0 <= c < self.rank_true for c in cols):
                raise ValueError(f"heterogeneity column out of range for site {site}")


def _sample_distinct(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """First ``count`` distinct draws from uniform sampling of [0, total)."""
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        batch = rng.integers(0, total, size=max(count, 2 * (count - chosen.size)))
        acc = np.concatenate([chosen, batch])
        _, first = np.unique(acc, return_index=True)
        chosen = acc[np.sort(first)]
    return chosen[:count]


def generate_synthetic(spec: SynthSpec):
    """Build (global tensor, shards, per-site truth factors).

    Truth factors are uniform [0, 1); suppressed columns are zeroed inside
    the owning site's block. Coordinates are sampled uniformly without
    replacement; each stored value is the exact truth reconstruction
    (coordinates whose truth value is zero are resampled), plus optional
    Gaussian observation noise.
    """
    i_dim, j_dim, k_dim = spec.dims
    total_cells = i_dim * j_dim * k_dim
    scaled = spec.sparsity * total_cells
    if scaled < 1.0:
        raise ValueError("sparsity too small: no entries to generate")
    # rounding guard: 1e-5 * 1.2e9 must give 12,000, not ceil(12000.000000000002)
    target = math.ceil(round(scaled, 9))
    if target > total_cells:
        raise ValueError("sparsity implies more entries than cells")

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0,)))
    truth_a = rng.random((i_dim, spec.rank_true))
    truth_b = rng.random((j_dim, spec.rank_true))
    truth_c = rng.random((k_dim, spec.rank_true))
    if spec.shuffle_rows:
        truth_a = truth_a[rng.permutation(i_dim)]

    starts = _block_starts(i_dim, spec.n_sites)
    for site, cols in spec.heterogeneity.items():
        lo, hi = starts[site], starts[site + 1]
        for c in cols:
            truth_a[lo:hi, c] = 0.0

    lin = _sample_distinct(rng, total_cells, target)
    coords = np.stack(np.unravel_index(lin, spec.dims), axis=1).astype(np.int64)
    values = np.einsum(
        "nr,nr,nr->n",
        truth_a[coords[:, 0]],
        truth_b[coords[:, 1]],
        truth_c[coords[:, 2]],
    )
    for _ in range(100):
        dead = values == 0.0
        if not dead.any():
            break
        taken = set(lin.tolist())
        fresh = []
        while len(fresh) < int(dead.sum()):
            for cand in rng.integers(0, total_cells, size=4 * int(dead.sum())).tolist():
                if cand not in taken:
                    taken.add(cand)
                    fresh.append(cand)
                    if len(fresh) == int(dead.sum()):
                        break
        lin[dead] = np.asarray(fresh, dtype=np.int64)
        coords = np.stack(np.unravel_index(lin, spec.dims), axis=1).astype(np.int64)
        values = np.einsum(
            "nr,nr,nr->n",
            truth_a[coords[:, 0]],
            truth_b[coords[:, 1]],
            truth_c[coords[:, 2]],
        )
    if np.any(values == 0.0):
        raise RuntimeError("could not find non-zero cells; truth factors degenerate")

    if spec.value_noise_std > 0:
        values = values + rng.normal(0.0, spec.value_noise_std, size=values.shape)

    order = np.argsort(lin)
    tensor = SparseTensorCOO(spec.dims, coords[order], values[order])
    shards = partition_rows(tensor, spec.n_sites)
    truths = [
        FactorizationResult(truth_a[starts[t] : starts[t + 1]], truth_b, truth_c)
        for t in range(spec.n_sites)
    ]
    return tensor, shards, truths


def _block_starts(i_dim: int, n_sites: int) -> list[int]:
    base = i_dim // n_sites
    starts = [t * base for t in range(n_sites)]
    starts.append(i_dim)  # last block absorbs the remainder
    return starts


def partition_rows(tensor: SparseTensorCOO, n_sites: int) -> list[SparseTensorCOO]:
    """Split mode 1 into contiguous blocks of floor(I/T) rows (last takes the
    remainder), re-basing each shard's row indices to local coordinates."""
    i_dim, j_dim, k_dim = tensor.dims
    if n_sites < 1:
        raise ValueError("need at least one partition")
    if n_sites > i_dim:
        raise ValueError(f"cannot split {i_dim} rows into {n_sites} non-empty blocks")
    starts = _block_starts(i_dim, n_sites)
    shards = []
    for t in range(n_sites):
        lo, hi = starts[t], starts[t + 1]
        mask = (tensor.coords[:, 0] >= lo) & (tensor.coords[:, 0] < hi)
        coords = tensor.coords[mask].copy()
        coords[:, 0] -= lo
        shards.append(SparseTensorCOO((hi - lo, j_dim, k_dim), coords, tensor.values[mask]))
    return shards


def permute_rows(tensor: SparseTensorCOO, seed: int) -> SparseTensorCOO:
    """Relabel mode-1 rows with a seeded permutation (for IID partitions)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    perm = rng.permutation(tensor.dims[0])
    coords = tensor.coords.copy()
    coords[:, 0] = perm[coords[:, 0]]
    return SparseTensorCOO(tensor.dims, coords, tensor.values)


def write_coo(tensor: SparseTensorCOO, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dims {tensor.dims[0]} {tensor.dims[1]} {tensor.dims[2]}\n")
        for i, j, k, v in tensor.entries():
            fh.write(f"{i} {j} {k} {v!r}\n")


def read_coo(path) -> SparseTensorCOO:
    """Parse a COO text file, reporting the offending line on any defect."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file; expected a '# dims I J K' header", line_no=1)
    head = lines[0].strip().split()
    if head[:2] != ["#", "dims"] or len(head) != 5:
        raise ParseError("first line must be '# dims I J K'", line_no=1)
    try:
        dims = tuple(int(x) for x in head[2:])
    except ValueError:
        raise ParseError("dims must be integers", line_no=1) from None
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 4:
            raise ParseError(f"expected 'i j k value', got {text!r}", line_no=no)
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            v = float(parts[3])
        except ValueError:
            raise ParseError(f"could not parse record {text!r}", line_no=no) from None
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise ParseError(f"index ({i}, {j}, {k}) outside dims {dims}", line_no=no)
        rows.append((i, j, k, v))
    return SparseTensorCOO.from_entries(dims, rows)


def write_factors(result: FactorizationResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        for m in (result.A, result.B, result.C):
            fh.write(f"# rows {m.shape[0]} {m.shape[1]}\n")
            for row in m:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_factors(path) -> FactorizationResult:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    blocks = []
    no = 0
    while no < len(lines):
        text = lines[no].strip()
        if not text:
            no += 1
            continue
        head = text.split()
        if head[:2] != ["#", "rows"] or len(head) != 4:
            raise ParseError("expected '# rows <n> <R>' block header", line_no=no + 1)
        try:
            n_rows, rank = int(head[2]), int(head[3])
        except ValueError:
            raise ParseError("block header must carry two integers", line_no=no + 1) from None
        block = np.empty((n_rows, rank))
        for r in range(n_rows):
            no += 1
            if no >= len(lines):
                raise ParseError("factor block truncated", line_no=no)
            vals = lines[no].split()
            if len(vals) != rank:
                raise ParseError(f"expected {rank} values", line_no=no + 1)
            block[r] = [float(v) for v in vals]
        blocks.append(block)
        no += 1
    if len(blocks) != 3:
        raise ParseError(f"expected 3 factor blocks, found {len(blocks)}", line_no=len(lines))
    return FactorizationResult(*blocks)


# -- experiment configuration -------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a run, with the documented defaults."""

    # generation
    dims: tuple[int, int, int] = (5000, 300, 800)
    rank_true: int = 50
    sparsity: float = 1e-5
    heterogeneity: dict = field(default_factory=dict)
    value_noise_std: float = 0.0
    shuffle_rows: bool = False
    # factorization
    rank: int = 50
    sites: int = 5
    eta: float = 1e-2
    gamma: float = 5.0
    mu: float = 0.5
    tau: int = 1
    clip: float = 1.0
    prox_threshold: str = PROX_SCALED
    # privacy
    rho: float = 1e-3
    delta: float = 1e-4
    # run control
    tol: float = 1e-4
    max_epochs: int = 100
    fixed_epochs: int | None = None
    transfer_rate: float = 15e6
    seed: int = 0
    # paths
    data_dir: str = "data"
    metrics_csv: str = "metrics.csv"
    factors_out: str = "factors"
    reference_factors: str | None = None

    def tensor_path(self) -> str:
        return os.path.join(self.data_dir, "global.coo")

    def shard_path(self, t: int) -> str:
        return os.path.join(self.data_dir, f"shard_{t}.coo")

    def truth_path(self, t: int) -> str:
        return os.path.join(self.data_dir, f"truth_site_{t}.factors")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_dims(text: str):
    parts = text.split()
    if len(parts) != 3:
        raise ValueError("dims needs three integers")
    return tuple(int(p) for p in parts)


def _parse_heterogeneity(text: str) -> dict:
    # "0:2 3:0,4" -> {0: (2,), 3: (0, 4)}
    out = {}
    for group in text.split():
        site_txt, _, cols_txt = group.partition(":")
        site = int(site_txt)
        cols = tuple(int(c) for c in cols_txt.split(",") if c != "")
        out[site] = cols
    return out


def _parse_optional_int(text: str):
    return None if text.strip() == "" else int(text)


def _parse_optional_str(text: str):
    return None if text.strip() == "" else text.strip()


_PARSERS = {
    "dims": _parse_dims,
    "rank_true": int,
    "sparsity": float,
    "heterogeneity": _parse_heterogeneity,
    "value_noise_std": float,
    "shuffle_rows": _parse_bool,
    "rank": int,
    "sites": int,
    "eta": float,
    "gamma": float,
    "mu": float,
    "tau": int,
    "clip": float,
    "prox_threshold": str.strip,
    "rho": float,
    "delta": float,
    "tol": float,
    "max_epochs": int,
    "fixed_epochs": _parse_optional_int,
    "transfer_rate": float,
    "seed": int,
    "data_dir": str.strip,
    "metrics_csv": str.strip,
    "factors_out": str.strip,
    "reference_factors": _parse_optional_str,
}


def _validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    checks = [
        ("dims", all(d >= 1 for d in cfg.dims)),
        ("rank_true", cfg.rank_true >= 1),
        ("sparsity", 0 < cfg.sparsity <= 1),
        ("value_noise_std", cfg.value_noise_std >= 0),
        ("rank", cfg.rank >= 1),
        ("sites", cfg.sites >= 1),
        ("eta", cfg.eta > 0),
        ("gamma", cfg.gamma >= 0),
        ("mu", cfg.mu >= 0),
        ("tau", cfg.tau >= 1),
        ("clip", cfg.clip > 0),
        ("prox_threshold", cfg.prox_threshold in (PROX_SCALED, PROX_PLAIN)),
        ("rho", cfg.rho > 0),
        ("delta", 0 < cfg.delta < 1),
        ("tol", cfg.tol > 0),
        ("max_epochs", cfg.max_epochs >= 0),
        ("fixed_epochs", cfg.fixed_epochs is None or cfg.fixed_epochs >= 0),
        ("transfer_rate", cfg.transfer_rate > 0),
    ]
    for key, ok in checks:
        if not ok:
            raise ConfigError(f"config key {key!r} is out of its domain")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read ``key = value`` lines; unknown keys and bad domains are rejected
    by name, and missing keys take the defaults."""
    known = {f.name for f in fields(ExperimentConfig)}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError(f"line {no}: expected 'key = value', got {text!r}")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                overrides[key] = _PARSERS[key](value.strip())
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    return _validate_config(replace(ExperimentConfig(), **overrides))


def config_overrides(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """A copy of ``cfg`` with fields replaced and domains re-checked."""
    return _validate_config(replace(cfg, **changes))
