"""The one switch the tests turn: the compiled library, or the Python path."""

from contextlib import contextmanager

import pytest

from fedcp import _native


@pytest.fixture(scope="session")
def without_library():
    """A context manager that runs its block as a host without a C compiler
    runs it: ``_native.LIBRARY`` is None inside, so every caller of a kernel
    takes its Python path. Session-scoped, so hypothesis tests may use it."""

    @contextmanager
    def python_path():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "LIBRARY", None)
            yield

    return python_path
