"""Synthetic tensor generation, COO text files, row partitioning, and
flat-text experiment configuration.

COO file format: UTF-8 text, first line ``# dims I J K``, then one
``i j k value`` record per line; a line whose first token starts with
``#`` is a comment, and a ``#`` later in a record is an error. Factor files hold
three blocks (A, B, C), each ``# rows <n> <R>`` followed by n rows of R
values. The writers write each value as its ``repr``: the shortest decimal
that reads back as the same float64. Config files are ``key = value`` lines.

``read_coo`` and the writers call the compiled ``parse_coo`` and
``format_records`` when ``_native.LIBRARY`` holds the library at the call,
else the line parser and ``repr``, with the same results.
``generate_synthetic`` takes its values from ``tensor.model_values``,
which picks the compiled ``model_values`` or the einsum by the same switch.
"""

import bisect
import io
import math
import os
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _native
from .errors import ConfigError, ParseError
from .privacy import PrivacyParams
from .solver import SolverParams
from .tensor import FactorizationResult, SparseTensorCOO, first_repeat, model_values


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

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ValueError("dims must be positive")
        if not 0 < self.sparsity <= 1:
            raise ValueError("sparsity must lie in (0, 1]")
        if self.rank_true < 1:
            raise ValueError("rank_true must be at least 1")
        if not 1 <= self.n_sites <= self.dims[0]:
            raise ValueError("n_sites must lie in [1, patient rows]")
        if not 0 <= self.value_noise_std < math.inf:
            raise ValueError("value_noise_std must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for site, cols in self.heterogeneity.items():
            if not 0 <= site < self.n_sites:
                raise ValueError(f"heterogeneity names unknown site {site}")
            if any(not 0 <= c < self.rank_true for c in cols):
                raise ValueError(f"heterogeneity column out of range for site {site}")


def _sample_distinct(rng: np.random.Generator, total: int, count: int, taken=None):
    """The first ``count`` distinct draws from uniform sampling of [0, total)
    that are not among the cells ``taken`` (ascending, distinct), as
    ``(cells, draws)``: the cells in ascending order, and the same cells in
    the order they were first drawn. Raises RuntimeError, before drawing,
    when fewer than ``count`` cells are left.

    While the draws so far hold fewer than ``count`` new cells, it draws a
    batch of ``max(count, 2 * (cells still wanted))`` and takes its cells
    with ``_first_distinct``: the batches, and so the stream, of a sampler
    that sorts every draw."""
    held = np.empty(0, dtype=np.int64) if taken is None else taken
    if held.size + count > total:
        raise RuntimeError(
            f"cannot draw {count} more distinct cells: {held.size} of {total} are taken"
        )
    cells = draws = np.empty(0, dtype=np.int64)
    while draws.size < count:
        batch = rng.integers(0, total, size=max(count, 2 * (count - draws.size)))
        new, new_draws = _first_distinct(batch, count - draws.size, held)
        if draws.size:
            (cells,) = _merge(cells, new)
            draws = np.concatenate([draws, new_draws])
        else:
            cells, draws = new, new_draws
        if draws.size < count:  # the batch ran out of new cells: the next one skips its cells
            (held,) = _merge(held, new)
    return cells, draws


def _first_distinct(batch, want: int, held):
    """The first ``want`` distinct cells of ``batch`` that are not ``held``
    (ascending), or all of them when there are fewer, as ``(cells, draws)``
    in the form ``_sample_distinct`` returns.

    Only the head of ``want`` draws is sorted. Each repeat in it (a cell
    drawn earlier, or held) is replaced by a new cell from past the head,
    read in order in chunks of at least twice the cells still wanted and
    twice the chunk before, so that a batch takes few chunks. Past the
    sort, a Python loop visits only the copies of repeated cells and the
    draws past the head that no array holds: its work grows with the
    repeats, the rest is a few passes over arrays of the head's length."""
    head = batch[:want]
    cells = np.sort(head)
    repeat = np.zeros(want, dtype=bool)  # a later copy of a cell, or a held cell
    np.equal(cells[1:], cells[:-1], out=repeat[1:])
    seen = set()
    if held.size:
        hit = _isin(cells, held)
        seen.update(cells[hit].tolist())
        repeat |= hit
    if not repeat.any():
        return cells, head
    # the head's draws that add no cell: every copy of a held cell, and
    # every copy of a drawn cell but its first
    copies = np.flatnonzero(_isin(head, cells[repeat]))
    keep = np.ones(want, dtype=bool)
    for at, cell in zip(copies.tolist(), head[copies].tolist()):
        if cell in seen:
            keep[at] = False
        else:
            seen.add(cell)
    cells = cells[~repeat]
    missing = want - cells.size
    extra = []
    start, step = want, 0
    while len(extra) < missing and start < batch.size:
        step = max(2 * (missing - len(extra)), 2 * step)
        chunk = batch[start : start + step]
        start += chunk.size
        for cell in chunk[~(_isin(chunk, cells) | _isin(chunk, held))].tolist():
            if cell not in seen:
                seen.add(cell)
                extra.append(cell)
                if len(extra) == missing:
                    break
    extra = np.array(extra, dtype=np.int64)
    (cells,) = _merge(cells, np.sort(extra))
    return cells, np.concatenate([head[keep], extra])


def _isin(values, ascending):
    """Whether each of ``values`` is in the ascending array ``ascending``."""
    if not ascending.size:
        return np.zeros(values.shape, dtype=bool)
    at = np.searchsorted(ascending, values)
    return ascending[np.minimum(at, ascending.size - 1)] == values


def _merge(cells, new, *columns):
    """``cells`` with the cells ``new`` inserted (both ascending, none in
    both), then each ``(old, added)`` pair of ``columns``, arrays whose rows
    go with ``cells`` and with ``new``, with its added rows at the same
    places."""
    at = np.searchsorted(cells, new)
    return [np.insert(old, at, added, axis=0) for old, added in ((cells, new), *columns)]


def _coords(cells, dims) -> np.ndarray:
    """The (n, 3) int64 coordinates of cells numbered in C order."""
    return np.stack(np.unravel_index(cells, dims), axis=1).astype(np.int64, copy=False)


def generate_synthetic(spec: SynthSpec):
    """Build (global tensor, shards, per-site truth factors).

    Truth factors are uniform [0, 1); suppressed columns are zeroed inside
    the owning site's block. Coordinates are sampled uniformly without
    replacement; each stored value is the exact truth reconstruction
    (coordinates whose truth value is zero are resampled), plus optional
    Gaussian observation noise. The values come from ``tensor.model_values``,
    so a host with or without the compiled library gives the same bytes.
    The truths share one B and one C, and each A is a view of one array:
    all three arrays are read-only.

    Raises ValueError when the spec implies no entries or more entries than
    cells, and RuntimeError when zero-valued cells cannot all be replaced:
    too few cells are left to draw from, or 100 resamples still hit zeros.
    """
    i_dim, j_dim, k_dim = dims = tuple(int(d) for d in spec.dims)
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

    starts = _block_starts(i_dim, spec.n_sites)
    for site, cols in spec.heterogeneity.items():
        lo, hi = starts[site], starts[site + 1]
        for c in cols:
            truth_a[lo:hi, c] = 0.0

    # ``cells`` is the stored order, ascending, and ``draws`` the order in
    # which the cells were drawn
    cells, draws = _sample_distinct(rng, total_cells, target)
    coords = _coords(cells, dims)
    values = model_values(truth_a, truth_b, truth_c, coords)
    for _ in range(101):  # the first draw, then up to 100 resamples of zero-valued cells
        dead = np.flatnonzero(values == 0.0)
        if not dead.size:
            break
        new, new_draws = _sample_distinct(rng, total_cells, dead.size, taken=cells)
        # the n-th new draw takes the place of the n-th dead cell drawn
        draws[np.flatnonzero(_isin(draws, cells[dead]))] = new_draws
        new_coords = _coords(new, dims)
        cells, coords, values = _merge(
            np.delete(cells, dead), new,
            (np.delete(coords, dead, axis=0), new_coords),
            (np.delete(values, dead), model_values(truth_a, truth_b, truth_c, new_coords)),
        )
    else:
        raise RuntimeError("could not find non-zero cells; truth factors degenerate")

    # distinct cells give distinct coordinates inside dims, and a truth
    # value left after the resample is finite and non-zero, so the tensor
    # is valid by construction; noise can make a value zero or overflow
    make = SparseTensorCOO._unchecked
    if spec.value_noise_std > 0:
        # the n-th noise value goes to the n-th cell drawn
        noise = rng.normal(0.0, spec.value_noise_std, size=values.shape)
        values = values + noise[np.argsort(draws)]
        make = SparseTensorCOO
    tensor = make(dims, coords, values)
    shards = partition_rows(tensor, spec.n_sites)
    # uniform [0, 1) or zero: finite, 2-D and of one rank by construction
    for m in (truth_a, truth_b, truth_c):
        m.flags.writeable = False
    truths = [
        FactorizationResult._unchecked(truth_a[starts[t] : starts[t + 1]], truth_b, truth_c)
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
    remainder), re-basing each shard's row indices to local coordinates.

    A shard of the validated ``tensor`` is valid by construction (rows
    rebased into its block, a subset of the coordinates and of the finite
    non-zero values), so it is built without checking it again. Each shard
    owns its arrays: a copy of a slice when the rows are in order, else a
    gather."""
    i_dim, j_dim, k_dim = tensor.dims
    if n_sites < 1:
        raise ValueError("need at least one partition")
    if n_sites > i_dim:
        raise ValueError(f"cannot split {i_dim} rows into {n_sites} non-empty blocks")
    starts = _block_starts(i_dim, n_sites)
    rows = tensor.coords[:, 0]
    if np.all(rows[1:] >= rows[:-1]):
        # rows in order, as in every generated file: each shard is a slice
        order = None
        cuts = np.searchsorted(rows, starts).tolist()
    else:
        # each entry's block; a stable sort by block keeps every block's
        # entries in their stored order, which a sort by row would not
        block = np.searchsorted(starts, rows, side="right") - 1
        order = np.argsort(block, kind="stable")
        cuts = np.searchsorted(block[order], np.arange(n_sites + 1)).tolist()
    shards = []
    for t in range(n_sites):
        lo, hi = starts[t], starts[t + 1]
        if order is None:
            coords = tensor.coords[cuts[t] : cuts[t + 1]].copy()
            values = tensor.values[cuts[t] : cuts[t + 1]].copy()
        else:
            take = order[cuts[t] : cuts[t + 1]]
            coords, values = tensor.coords[take], tensor.values[take]
        coords[:, 0] -= lo
        shards.append(SparseTensorCOO._unchecked((hi - lo, j_dim, k_dim), coords, values))
    return shards


def permute_rows(tensor: SparseTensorCOO, seed: int) -> SparseTensorCOO:
    """Relabel mode-1 rows with a seeded permutation (for IID partitions).

    A relabelling of the validated ``tensor`` is valid by construction (a
    bijection of rows keeps every index in range and every coordinate
    distinct), so it is built without checking it again."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    perm = rng.permutation(tensor.dims[0])
    coords = tensor.coords.copy()
    coords[:, 0] = perm[coords[:, 0]]
    return SparseTensorCOO._unchecked(tensor.dims, coords, tensor.values)


def write_coo(tensor: SparseTensorCOO, path):
    """Write ``tensor`` as a COO file: the dims line, then one record of 3
    ints and 1 value per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dims {tensor.dims[0]} {tensor.dims[1]} {tensor.dims[2]}\n")
        _write_records(fh, tensor.coords, tensor.values[:, None])


def _record_bytes(n_ints: int, n_values: int) -> int:
    """The room ``format_records`` checks for before each record: 20 bytes
    an int64 and 24 a repr, each with its blank or newline, and a newline."""
    return 21 * n_ints + 25 * n_values + 1


_WRITE_CHUNK = 1 << 14  # records formatted per call


def _write_records(fh, ints, values):
    """Write row n of ``ints`` ((n, n_ints) int64), then of ``values`` ((n,
    n_values) float64), as one line of blank-separated ints and ``repr``s.
    The compiled ``format_records`` writes each chunk of rows when the
    library loaded, else ``repr``, which also writes any chunk with a value
    outside the kernel's range; both write the same bytes."""
    n, n_ints = ints.shape
    n_values = values.shape[1]
    lib = _native.LIBRARY
    # the text of one chunk at a time: the text, or the Python objects, of
    # a whole tensor would set the process's peak memory
    room = min(n, _WRITE_CHUNK) * _record_bytes(n_ints, n_values)
    out = None if lib is None else np.empty(room, np.uint8)
    for start in range(0, n, _WRITE_CHUNK):
        chunk_ints = np.ascontiguousarray(ints[start : start + _WRITE_CHUNK], dtype=np.int64)
        chunk_values = np.ascontiguousarray(values[start : start + _WRITE_CHUNK], dtype=np.float64)
        if out is not None:
            size = lib.format_records(
                chunk_ints.ctypes.data, n_ints, chunk_values.ctypes.data, n_values,
                len(chunk_values), out.ctypes.data, out.size,
            )
            if size >= 0:
                fh.write(str(out[:size], "ascii"))
                continue
        rows = zip(chunk_ints.tolist(), chunk_values.tolist())
        fh.write("".join([" ".join([*map(str, i), *map(repr, v)]) + "\n" for i, v in rows]))


# the line ends a text-mode read splits at
_LINE_END = re.compile(rb"\r\n?|\n")


def _text(raw: bytes) -> io.TextIOWrapper:
    """The text of a UTF-8 file as ``open(path, encoding="utf-8")`` reads it;
    a byte that is not UTF-8 is a ParseError naming its line."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = 1 + len(_LINE_END.findall(raw, 0, exc.start))
        raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8", line_no=line_no) from None
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def read_coo(path) -> SparseTensorCOO:
    """Parse a COO text file, reporting the offending line on any defect.

    When the library loaded, the body is parsed in one call of the compiled
    ``parse_coo`` and checked by the tensor itself. A body that the call or
    the checks reject (a comment or blank line, a ``#`` inside a record, a
    token that is not a plain index or float, an index out of range, a
    zero, non-finite or repeated entry), and any body when the library did
    not load, is parsed line by line. That parser accepts what the compiled
    one does not (``1_0``, comment lines) and names the first bad line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = _LINE_END.search(raw)
    head_end, body_start = newline.span() if newline else (len(raw), len(raw))
    dims = _coo_dims(_text(raw[:head_end]).read())
    if _native.LIBRARY is not None:
        try:
            coords, values = _bulk_parse(raw, body_start)
            return SparseTensorCOO(dims, coords, values)
        except ValueError:
            pass
    text = _text(raw)
    text.readline()
    return _read_coo_lines(text, dims)


def _bulk_parse(raw: bytes, body_start: int):
    """The coords and values of the body ``raw[body_start:]`` in one call of
    the compiled ``parse_coo``; ValueError when a line is outside its grammar.

    The arrays hold one record per newline, plus one for a last line
    without one, as the compiled ``count_newlines`` counts them.
    """
    lib = _native.LIBRARY
    body = np.frombuffer(raw, dtype=np.uint8, offset=body_start)
    address, size = body.ctypes.data, body.size
    cap = lib.count_newlines(address, size) + 1
    coords = np.empty((cap, 3), dtype=np.int64)
    values = np.empty(cap)
    n = lib.parse_coo(address, size, cap, coords.ctypes.data, values.ctypes.data)
    if n < 0:
        raise ValueError(f"line {1 - n} is outside the grammar of parse_coo")
    return coords[:n], values[:n]


def _coo_dims(head: str) -> tuple[int, int, int]:
    head = head.split()
    if head[:2] != ["#", "dims"] or len(head) != 5:
        raise ParseError("first line must be '# dims I J K'", line_no=1)
    try:
        dims = tuple(int(x) for x in head[2:])
    except ValueError:
        raise ParseError("dims must be integers", line_no=1) from None
    if min(dims) < 1 or math.prod(dims) > np.iinfo(np.int64).max:
        raise ParseError(f"dims {dims} must be positive with a product below 2**63", line_no=1)
    return dims


def _read_coo_lines(fh, dims) -> SparseTensorCOO:
    """The records from line 2 of ``fh`` on, one line at a time; a line whose
    first token starts with ``#`` is a comment."""
    index, values = [], []  # flat lists: exact int indices, no per-record object
    skipped = []  # the number of records read before each comment or blank line
    for no, line in enumerate(fh, start=2):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            skipped.append(len(values))
            continue
        if len(parts) != 4:
            raise ParseError(f"expected 'i j k value', got {line.strip()!r}", line_no=no)
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            v = float(parts[3])
        except ValueError:
            raise ParseError(f"could not parse record {line.strip()!r}", line_no=no) from None
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise ParseError(f"index ({i}, {j}, {k}) outside dims {dims}", line_no=no)
        if v == 0.0 or not math.isfinite(v):
            raise ParseError(f"value {v!r} is not a finite non-zero number", line_no=no)
        index.append(i)
        index.append(j)
        index.append(k)
        values.append(v)
    coords = np.array(index, dtype=np.int64).reshape(-1, 3)
    try:
        return SparseTensorCOO(dims, coords, values)
    except ValueError as exc:  # a repeated coordinate: each line passed the other checks
        n = first_repeat(np.ravel_multi_index(tuple(coords.T), dims))
        raise ParseError(str(exc), line_no=n + 2 + bisect.bisect_right(skipped, n)) from None


def write_factors(result: FactorizationResult, path):
    """Write the three factor blocks, each a ``# rows <n> <R>`` line and
    then one record of 0 ints and R values per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in (result.A, result.B, result.C):
            fh.write(f"# rows {m.shape[0]} {m.shape[1]}\n")
            _write_records(fh, np.empty((m.shape[0], 0), np.int64), m)


def read_factors(path) -> FactorizationResult:
    with open(path, "rb") as fh:
        lines = [ln.rstrip("\n") for ln in _text(fh.read())]
    blocks = []
    no = 0
    first_header = None
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
        if n_rows < 0 or rank < 0:
            raise ParseError("block header counts must be non-negative", line_no=no + 1)
        first_header = first_header or no + 1
        if blocks and rank != blocks[0].shape[1]:
            raise ParseError(
                f"block rank {rank} differs from the first block's {blocks[0].shape[1]}",
                line_no=no + 1,
            )
        # checked before anything is allocated: the header's counts are
        # outside input, and each row must hold rank values
        if n_rows > len(lines) - no - 1:
            raise ParseError("factor block truncated", line_no=no + 1)
        rows = []
        for _ in range(n_rows):
            no += 1
            vals = lines[no].split()
            if len(vals) != rank:
                raise ParseError(f"expected {rank} values", line_no=no + 1)
            try:
                row = [float(v) for v in vals]
            except ValueError:
                raise ParseError(f"could not parse values {lines[no]!r}", line_no=no + 1) from None
            if not all(map(math.isfinite, row)):
                raise ParseError("factor values must be finite", line_no=no + 1)
            rows.append(row)
        blocks.append(np.array(rows, dtype=np.float64).reshape(n_rows, rank))
        no += 1
    if len(blocks) != 3:
        raise ParseError(
            f"expected 3 factor blocks, found {len(blocks)}", line_no=max(len(lines), 1)
        )
    # a rank that no row confirms is the header's word alone, and the
    # per-column work on these factors would be sized by it
    if not any(len(b) for b in blocks):
        raise ParseError("no factor block holds a row", line_no=first_header)
    if blocks[0].shape[1] < 1:
        raise ParseError("factor rank must be at least 1", line_no=first_header)
    return FactorizationResult(*blocks)


# -- experiment configuration -------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a run. Generation, solver and privacy defaults and
    domains belong to the objects the builders below make."""

    # generation
    dims: tuple[int, int, int] = SynthSpec.dims
    rank_true: int = SynthSpec.rank_true
    sparsity: float = SynthSpec.sparsity
    heterogeneity: dict = field(default_factory=dict)
    value_noise_std: float = SynthSpec.value_noise_std
    shuffle_rows: bool = False
    # factorization
    rank: int = 50
    sites: int = SynthSpec.n_sites
    eta: float = SolverParams.eta
    gamma: float = SolverParams.gamma
    mu: float = SolverParams.mu
    tau: int = SolverParams.tau
    clip: float = SolverParams.clip
    # privacy
    rho: float = PrivacyParams.rho
    delta: float = PrivacyParams.delta
    # run control
    tol: float = 1e-4
    max_epochs: int = 100
    fixed_epochs: int | None = None
    transfer_rate: float = 15e6
    seed: int = SynthSpec.seed
    # paths
    data_dir: str = "data"
    metrics_csv: str = "metrics.csv"
    factors_out: str = "factors"
    reference_factors: str | None = None

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(
            dims=self.dims,
            rank_true=self.rank_true,
            sparsity=self.sparsity,
            n_sites=self.sites,
            heterogeneity=self.heterogeneity,
            seed=self.seed,
            value_noise_std=self.value_noise_std,
        )

    def solver_params(self) -> SolverParams:
        return SolverParams(
            eta=self.eta, gamma=self.gamma, mu=self.mu, tau=self.tau, clip=self.clip
        )

    def privacy_params(self) -> PrivacyParams:
        return PrivacyParams(rho=self.rho, delta=self.delta)

    def tensor_path(self) -> str:
        return os.path.join(self.data_dir, "global.coo")

    def truth_path(self, t: int) -> str:
        return os.path.join(self.data_dir, f"truth_site_{t}.factors")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
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
        if site in out:
            raise ValueError(f"site {site} is listed twice")
        out[site] = tuple(int(c) for c in cols_txt.split(",") if c != "")
    return out


# value parsers by declared field type; every value arrives stripped
_PARSERS = {
    tuple[int, int, int]: _parse_dims,
    dict: _parse_heterogeneity,
    bool: _parse_bool,
    int: int,
    float: float,
    str: str,
    int | None: lambda text: int(text) if text else None,
    str | None: lambda text: text or None,
}


def _validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the run-control keys here and every other key by building the
    object that owns it."""
    checks = [
        ("rank", cfg.rank >= 1),
        ("tol", cfg.tol > 0),
        ("max_epochs", cfg.max_epochs >= 0),
        ("fixed_epochs", cfg.fixed_epochs is None or cfg.fixed_epochs >= 0),
        ("transfer_rate", cfg.transfer_rate > 0),
    ]
    for key, ok in checks:
        if not ok:
            raise ConfigError(f"config key {key!r} is out of its domain")
    try:
        cfg.synth_spec()
        cfg.solver_params()
        cfg.privacy_params()
    except ValueError as exc:  # each message starts with the field it checks
        raise ConfigError(f"config: {exc}") from None
    return cfg


# a comment starts at a '#' that opens the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def load_config(path) -> ExperimentConfig:
    """Read ``key = value`` lines; unknown keys and bad domains are rejected
    by name, and missing keys take the defaults. A ``#`` at the start of a
    line or after whitespace starts a comment; one inside a value is kept."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    overrides = {}
    try:
        with open(path, "rb") as fh:
            text = _text(fh.read())
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    for no, line in enumerate(text, start=1):
        text = _COMMENT.split(line, 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"line {no}: expected 'key = value', got {text!r}")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            overrides[key] = _PARSERS[types[key]](value.strip())
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return _validate_config(replace(ExperimentConfig(), **overrides))


def config_overrides(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """A copy of ``cfg`` with fields replaced and domains re-checked."""
    return _validate_config(replace(cfg, **changes))
