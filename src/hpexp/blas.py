"""OpenBLAS thread count of every loaded copy, through ctypes.

numpy and scipy wheels each bundle their own OpenBLAS.  numpy's copy loads
with numpy; scipy's loads only with ``scipy.linalg``, which the coefficient
layers never import, so each copy is set as it loads: ``import hpexp`` sets
the copies loaded at that point, and ``fem`` and ``dgfem`` call
``set_threads(1)`` again right after their scipy imports.  ``threads()``
reads each copy's count and ``set_threads(n)`` sets every copy to ``n``.
The copies are found by name among the files mapped into the process
(``/proc/self/maps``), scanned afresh on each call so that a copy loaded
later is found; where that lists no known OpenBLAS, ``set_threads`` does
nothing and ``threads()`` reports ``None``.
"""

from __future__ import annotations

import ctypes
import os
from functools import cache
from typing import Optional

import numpy  # noqa: F401  (loads numpy's OpenBLAS)

__all__ = ["set_threads", "threads"]

# (setter, getter) exported by numpy's copy, scipy's copy and a plain OpenBLAS
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))


@cache
def _bind(path: str) -> Optional[tuple]:
    """(file basename, setter, getter) of the OpenBLAS at ``path``, or None
    if it exports no known symbol pair or cannot be opened."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:             # e.g. a mapping of a file since deleted
        return None
    for set_name, get_name in _SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return os.path.basename(path), setter, getter
    return None


def _libraries() -> tuple:
    """(file basename, setter, getter) of each loaded file named *openblas*
    that exports a known symbol pair."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split(None, 5)[-1].strip() for ln in fh
                            if "openblas" in ln.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    return tuple(lib for lib in map(_bind, paths) if lib is not None)


def threads() -> Optional[dict]:
    """{library file name: its thread count}, or None with no known BLAS."""
    return {name: get() for name, _, get in _libraries()} or None


def set_threads(n: int) -> None:
    """Set every loaded OpenBLAS to ``n`` threads."""
    for _, set_, _ in _libraries():
        set_(n)
