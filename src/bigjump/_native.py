"""One control over the BLAS libraries already loaded into the process.

`one_blas_thread` runs a block on one BLAS thread, for the calling thread
only, through OpenBLAS's thread-local ``openblas_set_num_threads_local``
(numpy and scipy each bundle an OpenBLAS that exports it).  A threaded dot
or matrix product splits its sums by the core count, so its bits depend on
the machine, and its idle threads spin after every call.  Where no loaded
library exports the symbol, it leaves the process alone.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

__all__ = ["one_blas_thread"]


@functools.cache
def _blas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every loaded OpenBLAS that
    exports it; empty where none does or the loaded libraries cannot be
    listed."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = sorted(
        {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    )
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextmanager
def one_blas_thread():
    """Run the block's BLAS calls on one thread, for the calling thread.

    Not reentrant: on exit the thread follows the process-wide thread count
    again (a local count of 0).
    """
    setters = _blas_thread_setters()
    for setter in setters:
        setter(1)
    try:
        yield
    finally:
        for setter in setters:
            setter(0)

