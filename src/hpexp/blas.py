"""OpenBLAS thread count of every loaded copy, through ctypes.

numpy and scipy wheels each bundle their own OpenBLAS; both are imported
first so that both are loaded.  ``threads()`` reads each copy's count and
``set_threads(n)`` sets every copy to ``n``.  The copies are found by name
among the files mapped into the process (``/proc/self/maps``); where that
lists no known OpenBLAS, ``set_threads`` does nothing and ``threads()``
reports ``None``.
"""

from __future__ import annotations

import ctypes
import os
from functools import cache
from typing import Optional

import numpy.linalg  # noqa: F401  (loads numpy's OpenBLAS)
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

__all__ = ["set_threads", "threads"]

# (setter, getter) exported by numpy's copy, scipy's copy and a plain OpenBLAS
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))


@cache
def _libraries() -> tuple:
    """(file basename, setter, getter) of each loaded file named *openblas*
    that exports a known symbol pair."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split(None, 5)[-1].strip() for ln in fh
                            if "openblas" in ln.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:         # e.g. a mapping of a file since deleted
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((os.path.basename(path), setter, getter))
                break
    return tuple(found)


def threads() -> Optional[dict]:
    """{library file name: its thread count}, or None with no known BLAS."""
    return {name: get() for name, _, get in _libraries()} or None


def set_threads(n: int) -> None:
    """Set every loaded OpenBLAS to ``n`` threads."""
    for _, set_, _ in _libraries():
        set_(n)
