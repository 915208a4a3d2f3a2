"""Run pytest with fedcp's compiled kernels built under AddressSanitizer and
UndefinedBehaviorSanitizer.

    PYTHONPATH=src python tests/sanitized.py [pytest arguments]

for example ``tests/test_data.py::TestKernelEdges`` or ``tests/test_fuzz.py``.
The script re-executes itself with three environment values set:

- ``LD_PRELOAD``, the ASan runtime that ``cc -print-file-name=libasan.so``
  names: a library built with ASan loads only into a process that started
  with its runtime;
- ``PYTHONMALLOC=malloc``, so that every Python object, a small ``bytes``
  included, is a malloc block whose ends ASan knows;
- ``ASAN_OPTIONS=detect_leaks=0``: the interpreter leaves objects alive at
  exit, which are not the kernels' leaks.

It then builds ``_sgd.c`` with ``_native.FLAGS`` and ``_SANITIZE`` into a
temporary directory and runs pytest with output capture off (with the file
descriptors captured, a report is lost and the run only exits 1). The
build runs while pytest collects, which reads only whether a library
loaded; when collection ends, the build becomes ``_native.LIBRARY``. A
read or write outside a malloc block, or an undefined operation, in a
kernel then stops the process with a report on stderr and a non-zero
exit. The exit status is pytest's, or ``NO_SANITIZERS`` when there is no
``cc``, no ASan runtime or the sanitized build fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

_SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g")
NO_SANITIZERS = 77


def environment() -> dict | None:
    """``os.environ`` with the three values set, or None when there is no
    ``cc`` or it names no ASan runtime."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        runtime = subprocess.run(
            [compiler, "-print-file-name=libasan.so"],
            capture_output=True, text=True, timeout=60,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    if not (os.path.isabs(runtime) and os.path.isfile(runtime)):
        return None
    return {**os.environ, "LD_PRELOAD": runtime, "PYTHONMALLOC": "malloc",
            "ASAN_OPTIONS": "detect_leaks=0"}


def main(argv: list) -> int:
    env = environment()
    if env is None:
        print("sanitized.py: no cc, or no ASan runtime for it", file=sys.stderr)
        return NO_SANITIZERS
    if any(os.environ.get(name) != env[name]
           for name in ("LD_PRELOAD", "PYTHONMALLOC", "ASAN_OPTIONS")):
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    # the runtime is loaded; the compiler and any process a test starts run without it
    del os.environ["LD_PRELOAD"]

    from fedcp import _native

    _native.FLAGS = (*_native.FLAGS, *_SANITIZE)
    with tempfile.TemporaryDirectory(prefix="fedcp-sanitized-") as directory, \
            ThreadPoolExecutor(1) as pool:
        build = pool.submit(_native.load, directory)

        import pytest

        class SanitizedLibrary:
            @staticmethod
            def pytest_collection_finish():
                _native.LIBRARY = build.result()
                if _native.LIBRARY is None:
                    pytest.exit("the sanitized build of _sgd.c failed", NO_SANITIZERS)

        return int(pytest.main(["-p", "no:cacheprovider", "--capture=no", *argv],
                               plugins=[SanitizedLibrary]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
