"""The package's one BLAS thread policy: a CLI subcommand runs on one thread.

On a 2-vCPU box a second OpenBLAS thread slows every CLI workload (the
spinning worker competes with the main thread), and threaded products
round differently, so output bytes would follow the environment's thread
count.  `one_thread` sets every loaded OpenBLAS to one thread and restores
each library's previous count on exit.

Libraries are found as threadpoolctl finds them: the OpenBLAS shared
objects listed in /proc/self/maps, bound through ctypes by their exported
thread-count functions.  A CLI run loads one, numpy's, which also serves
the package's LAPACK calls (_lapack); scipy's wheel bundles another,
loaded only where scipy is imported (the tests, the oracle's ZGV
locator, or _lapack's fallback on a numpy that exports no LAPACK).  Their
symbols carry a `scipy_` prefix and, for the 64-bit-integer build, a `64_`
suffix.  Without /proc, without an OpenBLAS, or without a known symbol,
the policy does nothing.  The thread count belongs to the process, so
runs in concurrent threads of one process would restore each other's
counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path
from typing import Callable, NamedTuple

_FILE_PREFIXES = ("libopenblas", "libscipy_openblas")
_SYMBOL_PREFIXES = ("", "scipy_")
_SYMBOL_SUFFIXES = ("", "64_", "_64")


class OpenBLAS(NamedTuple):
    """The thread-count functions of one loaded OpenBLAS library."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _mapped_paths() -> list:
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields if len(f) == 6})


def _bind(path: str) -> OpenBLAS | None:
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return OpenBLAS(get, set_)
    return None


@functools.cache
def openblas_libraries() -> tuple:
    """Every OpenBLAS loaded in this process, found on the first call."""
    found = (_bind(path) for path in _mapped_paths()
             if Path(path).name.startswith(_FILE_PREFIXES))
    return tuple(lib for lib in found if lib is not None)


@contextlib.contextmanager
def one_thread():
    """Run the body with every loaded OpenBLAS on one thread."""
    libraries = openblas_libraries()
    previous = [lib.get_num_threads() for lib in libraries]
    try:
        for lib in libraries:
            lib.set_num_threads(1)
        yield
    finally:
        for lib, count in zip(libraries, previous):
            lib.set_num_threads(count)
