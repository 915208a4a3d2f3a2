"""Build, cache and load the compiled SGD pass in ``_sgd.c`` through ctypes.

The library is compiled with the system ``cc`` on first import into this
package's ``__pycache__`` directory, the place and trust boundary the
bytecode already uses. Its file name hashes the source, the flags and the
compiler, so a changed source or compiler gets a fresh build. The compiler
writes to a temporary name that is renamed into place when it succeeds,
so a half-written library is never loaded. When there is no compiler, or
compiling or loading fails, ``load`` returns None and the solver runs its
Python loop instead.
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
# no -ffast-math, no -march=native: the pass must round like the Python loop
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120

_P = ctypes.c_void_p
_ARGTYPES = (
    ctypes.c_int64, _P, _P, _P,  # nnz, order, coords, values
    _P, _P, _P, _P, _P,  # A, B, C, b_hat, c_hat
    ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_int,
    _P,  # work
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


def load(directory: Path = CACHE_DIR):
    """The compiled ``sgd_pass`` with its argument types declared, or None."""
    path = build(directory)
    if path is None:
        return None
    try:
        fn = ctypes.CDLL(str(path)).sgd_pass
    except (OSError, AttributeError):
        return None
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64
    return fn
