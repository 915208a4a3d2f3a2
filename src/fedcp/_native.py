"""Build, cache and load the compiled kernels in ``_sgd.c`` through ctypes.

The library is compiled with the system ``cc`` on first import into this
package's ``__pycache__`` directory, the place and trust boundary the
bytecode already uses. Its file name hashes the source, the flags and the
compiler, so a changed source or compiler gets a fresh build. The compiler
writes to a temporary name that is renamed into place when it succeeds,
so a half-written library is never loaded; a build then deletes the other
``_sgd-*.so`` files there. ``SIGNATURES`` declares the file's seven kernels.

``LIBRARY`` is the one switch between the compiled and the Python code:
the loaded library, or None when there is no compiler or compiling or
loading fails. ``solver``, ``tensor``, ``data``, ``privacy`` and
``federation`` read it at each call, never at import. When it is None the
solver runs a site's round in Python, ``tensor.model_values`` (for
``rmse`` and ``generate_synthetic``) its einsum and ``read_coo`` its line
parser instead, the COO and factor writers format with ``repr``,
``privacy.perturb_matrix`` draws its noise with
``Generator.standard_normal``, and ``federation.server_update`` takes the
anchor step with numpy and the round's change with ``worst_change`` over
views of the encodings' values; setting it to None gives that path in a
process that did load the library.

``anchor_addresses`` gives the kernels that read the broadcast anchors
their addresses, read once per pair of arrays rather than once per call.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_sgd.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# The kernels must round like their Python references. -O3 vectorises only
# the element-wise loops: without -ffast-math gcc reassociates no sum, so
# every sum keeps its written order, and -ffp-contract=off forbids fused
# multiply-adds. No -march=native: the build does not depend on the host's
# CPU (on x86-64 the vectors are SSE2's, two doubles wide).
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120

_P, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# name: (restype, argtypes) of each kernel that _sgd.c exports; load
# declares every one, and a library without one of them is not loaded
SIGNATURES = {
    "site_round": (ctypes.c_int, (
        _I64, _P, _P,  # nnz, coords, values
        _I64, _I64, _I64,  # i_dim, j_dim, k_dim
        _P, _P, _P, _I64,  # A, B, C, rank
        _P, _P,  # out, tally
        _I64, _P, _P, _P,  # tau, bitgen, b_hat, c_hat
        _F64, _F64, _F64, _F64,  # eta, gamma, clip, threshold
    )),
    "model_values": (None, (
        _I64, _P,  # nnz, coords
        _P, _P, _P,  # A, B, C
        _I64, _P,  # rank, out
    )),
    "count_newlines": (_I64, (_P, _I64)),  # buf, len
    "parse_coo": (_I64, (
        _P, _I64, _I64,  # buf, len, cap
        _P, _P,  # coords, values
    )),
    "format_records": (_I64, (
        _P, _I64, _P, _I64,  # ints, n_ints, values, n_values
        _I64, _P, _I64,  # n, out, cap
    )),
    "gaussian_perturb": (None, (_P, _I64, _P, _F64, _P)),  # bitgen, n, m, sigma, out
    "server_step": (ctypes.c_int, (
        _I64, _P, _P,  # n_sites, uploads, prev
        _I64, _I64, _I64,  # offset, split, size
        _P, _P, _F64, _F64,  # b_hat, c_hat, eta, gamma
        _P, _P,  # out, change
    )),
}


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
    for stale in target.parent.glob("_sgd-*.so"):
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass
    return target


def load(directory: Path = CACHE_DIR) -> ctypes.CDLL | None:
    """The library with every kernel in ``SIGNATURES`` declared, or None."""
    path = build(directory)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in SIGNATURES.items():
            kernel = getattr(lib, name)
            kernel.restype, kernel.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib


# built and loaded once per process
LIBRARY = load()

# the last anchor pair that anchor_addresses read and needed no conversion
_anchors = (None, None, 0, 0)


def anchor_addresses(b_hat, c_hat) -> tuple:
    """(B_hat, C_hat, the address of each one's values), the two as
    C-contiguous float64 arrays; the caller holds them for its call.

    A federation round's site rounds and server step read one pair, and a
    ``ctypes.data`` read takes about a microsecond, so the last pair that
    needed no conversion is kept with its addresses. The memo holds the
    arrays, so no other object takes their identities, and is replaced in
    one assignment, so a pool thread may compute it anew but never reads
    half of it. A pair that needs conversion is converted at each call.
    """
    global _anchors
    held = _anchors
    if held[0] is b_hat and held[1] is c_hat:
        return held
    b = np.ascontiguousarray(b_hat, dtype=np.float64)
    c = np.ascontiguousarray(c_hat, dtype=np.float64)
    pair = (b, c, b.ctypes.data, c.ctypes.data)
    if b is b_hat and c is c_hat:
        _anchors = pair
    return pair
