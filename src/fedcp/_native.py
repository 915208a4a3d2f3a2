"""Build, cache and load the compiled kernels in ``_sgd.c`` through ctypes.

The library is compiled with the system ``cc`` on first import into this
package's ``__pycache__`` directory, the place and trust boundary the
bytecode already uses. Its file name hashes the source, the flags and the
compiler, so a changed source or compiler gets a fresh build. The compiler
writes to a temporary name that is renamed into place when it succeeds,
so a half-written library is never loaded. When there is no compiler, or
compiling or loading fails, ``load`` returns None: the solver runs a
site's round in Python, ``rmse`` its einsum and ``read_coo`` its
``np.loadtxt`` call instead, and the COO and factor writers format with
``repr``.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_sgd.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# The kernels must round like their Python references. -O3 vectorises only
# the element-wise loops: without -ffast-math gcc reassociates no sum, so
# every sum keeps its written order, and -ffp-contract=off forbids fused
# multiply-adds. No -march=native: the build does not depend on the host's
# CPU (on x86-64 the vectors are SSE2's, two doubles wide).
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120

_P = ctypes.c_void_p
_SITE_ROUND_ARGTYPES = (
    ctypes.c_int64, ctypes.c_int64, _P, _P, _P,  # tau, nnz, orders, coords, values
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # i_dim, j_dim, k_dim
    _P, _P, _P, _P, _P,  # A, B, C, b_hat, c_hat
    ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_int,
    ctypes.c_double, _P, _P,  # threshold, sums, tally
)
_MODEL_VALUES_ARGTYPES = (
    ctypes.c_int64, _P,  # nnz, coords
    _P, _P, _P,  # A, B, C
    ctypes.c_int64, _P,  # rank, out
)
_PARSE_COO_ARGTYPES = (
    _P, ctypes.c_int64, ctypes.c_int64,  # buf, len, cap
    _P, _P,  # coords, values
)
_FORMAT_ROWS_ARGTYPES = (
    _P, ctypes.c_int64, ctypes.c_int64,  # values, n, rank
    _P, ctypes.c_int64,  # out, cap
)
_FORMAT_COO_ARGTYPES = (
    _P, _P, ctypes.c_int64,  # coords, values, n
    _P, ctypes.c_int64,  # out, cap
)


def build(directory: Path) -> Path | None:
    """The cached library in ``directory``, compiled first if it is missing;
    None when there is no compiler or the compile fails."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        source = SOURCE.read_bytes()
        real = os.path.realpath(compiler)
        st = os.stat(real)
        key = hashlib.sha256(b"\0".join((
            source,
            " ".join(FLAGS).encode(),
            f"{real} {st.st_size} {st.st_mtime_ns}".encode(),
        ))).hexdigest()[:16]
        target = Path(directory) / f"_sgd-{key}.so"
        if target.is_file():
            return target
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=target.parent)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                input=source, capture_output=True, check=True, timeout=_COMPILE_TIMEOUT_S,
            )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError):
        return None
    return target


def load(directory: Path = CACHE_DIR) -> ctypes.CDLL | None:
    """The library with ``site_round``, ``model_values``, ``parse_coo``,
    ``format_rows`` and ``format_coo`` declared, or None."""
    path = build(directory)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        site_round, model_values, parse_coo = lib.site_round, lib.model_values, lib.parse_coo
        format_rows, format_coo = lib.format_rows, lib.format_coo
    except (OSError, AttributeError):
        return None
    site_round.argtypes = _SITE_ROUND_ARGTYPES
    site_round.restype = ctypes.c_int
    model_values.argtypes = _MODEL_VALUES_ARGTYPES
    model_values.restype = None
    parse_coo.argtypes = _PARSE_COO_ARGTYPES
    parse_coo.restype = ctypes.c_int64
    format_rows.argtypes = _FORMAT_ROWS_ARGTYPES
    format_rows.restype = ctypes.c_int64
    format_coo.argtypes = _FORMAT_COO_ARGTYPES
    format_coo.restype = ctypes.c_int64
    return lib


# built and loaded once per process; the solver, rmse, read_coo, write_coo and
# write_factors take their kernels from it
LIBRARY = load()
