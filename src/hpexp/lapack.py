"""Dense Cholesky kernels from numpy's own OpenBLAS, through ctypes.

numpy's wheels (numpy >= 2.0) bundle scipy-openblas64, which exports its
LAPACK and BLAS routines as ``scipy_<name>_64_`` with 64-bit integers.
``fem`` calls the five bound here, so a FEM run loads that one OpenBLAS, the
copy ``import hpexp`` has set to one thread, and no scipy.  The library is
the file among those ``hpexp.blas`` finds mapped into the process that
exports all five; where none does, importing this module raises
``ImportError``.

Each routine works in place on float64 operands stored column-major: an
F-ordered matrix, a column slice of one, or a contiguous vector (one
column).  Only the triangle named is read or written.  On an 8 x 8 matrix
the call itself costs as much as the factorization (the foreign call about
1 us), so a call reads each operand's address once, from the array's
header, and passes its integers through buffers made once.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from . import blas

__all__ = ["dpotrf", "dpotrs", "dtrtrs", "dtrsm", "dsyrk"]

# each routine's number of arguments, all passed by address; no length
# follows a character argument, as none of the five reads one (each takes
# single characters), and each would cost a call 0.2 us
_ARGS = {"dpotrf": 5, "dpotrs": 8, "dtrtrs": 10, "dtrsm": 11, "dsyrk": 10}


def _load() -> list:
    """The five routines of numpy's OpenBLAS, in ``_ARGS`` order, each as a
    ctypes prototype (a call through one costs about 0.9 us less than
    through a library attribute with ``argtypes``)."""
    symbols = [f"scipy_{name}_64_" for name in _ARGS]
    for path in blas._paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, s) for s in symbols):
            return [ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n)((s, lib))
                    for s, n in zip(symbols, _ARGS.values())]
    raise ImportError(
        "hpexp.lapack needs numpy's OpenBLAS (the scipy-openblas64 that "
        "numpy >= 2.0 wheels bundle), and no loaded library exports "
        + ", ".join(symbols))


_potrf, _potrs, _trtrs, _trsm, _syrk = _load()

# the argument buffers: integers, the characters L U N T R and the scalars;
# a call fills and reads the integers under the lock, as the foreign call
# releases the interpreter lock
_LOCK = threading.Lock()
_INT = (ctypes.c_int64 * 5)()
_I0, _I1, _I2, _I3, _I4 = (ctypes.addressof(_INT) + 8 * i for i in range(5))
_CHAR = ctypes.create_string_buffer(b"LUNTR")
_L, _U, _N, _T, _R = (ctypes.addressof(_CHAR) + i for i in range(5))
_SCALAR = (ctypes.c_double * 2)(1.0, -1.0)
_ONE, _MINUS_ONE = ctypes.addressof(_SCALAR), ctypes.addressof(_SCALAR) + 8
_F64 = np.dtype(np.float64)

# An array's data address is the first field after its object header
# (numpy's PyArrayObject_fields; the PyArray_DATA of every compiled numpy
# extension reads it there).  Reading it there costs about 0.3 us, against
# 1.7 us for ``a.ctypes.data``; the layout is checked once, here.
_DATA = object.__basicsize__
_word = ctypes.c_void_p.from_address
_probe = np.zeros((3, 2), order="F")[1:, 1:]
if _word(id(_probe) + _DATA).value != _probe.ctypes.data:
    raise ImportError("hpexp.lapack reads an array's data address after its "
                      "object header, and this interpreter's arrays differ")
del _probe


def _operand(a: np.ndarray, writes: bool = False) -> tuple:
    """(address, rows, columns, leading dimension) of a float64 vector or
    matrix stored column-major; ``writes``: the routine writes it."""
    shape, strides = a.shape, a.strides
    if not 1 <= len(shape) <= 2 or a.dtype is not _F64:
        raise ValueError(f"expected a float64 vector or matrix stored "
                         f"column-major, got {a.dtype} of shape {shape}")
    rows = shape[0]
    cols = shape[1] if len(shape) == 2 else 1
    spans = cols > 1 and rows > 0           # a second column is addressed
    ld = strides[1] // 8 if spans else rows
    if (rows > 1 and cols and strides[0] != 8
            or spans and (strides[1] != 8 * ld or ld < rows)):
        raise ValueError(f"expected a float64 vector or matrix stored "
                         f"column-major, got strides {strides} for shape "
                         f"{shape}")
    if writes and not a.flags.writeable:
        raise ValueError("an operand written in place is read-only")
    return _word(id(a) + _DATA).value, rows, cols, ld or 1


def _square(a: np.ndarray, writes: bool = False) -> tuple:
    """(address, order, leading dimension) of a square ``_operand``."""
    ptr, n, cols, ld = _operand(a, writes)
    if cols != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return ptr, n, ld


def dpotrf(a: np.ndarray, lower: bool = True) -> int:
    """Cholesky factor of the symmetric positive definite ``a``, in place:
    L with a = L L^T on and below the diagonal, or U with a = U^T U on and
    above it if not ``lower``.  Returns LAPACK's info: 0, or i > 0 if the
    leading minor of order i is not positive definite."""
    ptr, n, ld = _square(a, writes=True)
    with _LOCK:
        _INT[0], _INT[1] = n, ld
        _potrf(_L if lower else _U, _I0, ptr, _I1, _I2)
        return _INT[2]


def dpotrs(c: np.ndarray, b: np.ndarray, lower: bool = True) -> None:
    """Solve a x = b in place in ``b`` (a vector or one column per right-hand
    side), with ``c`` the factor of a from ``dpotrf(a, lower)``."""
    pc, n, ldc = _square(c)
    pb, rows, nrhs, ldb = _operand(b, writes=True)
    if rows != n:
        raise ValueError(f"b has {rows} rows, the factor order {n}")
    with _LOCK:
        _INT[0], _INT[1], _INT[2], _INT[3] = n, nrhs, ldc, ldb
        _potrs(_L if lower else _U, _I0, _I1, pc, _I2, pb, _I3, _I4)


def dtrtrs(a: np.ndarray, b: np.ndarray, trans: bool = False) -> None:
    """Solve L x = b, or L^T x = b if ``trans``, in place in ``b``, with L the
    lower triangle of ``a``: a factor from ``dpotrf``, so nonsingular."""
    pa, n, lda = _square(a)
    pb, rows, nrhs, ldb = _operand(b, writes=True)
    if rows != n:
        raise ValueError(f"b has {rows} rows, the factor order {n}")
    with _LOCK:
        _INT[0], _INT[1], _INT[2], _INT[3] = n, nrhs, lda, ldb
        _trtrs(_L, _T if trans else _N, _N, _I0, _I1, pa, _I2, pb, _I3, _I4)


def dtrsm(a: np.ndarray, b: np.ndarray) -> None:
    """b <- b L^-T in place, with L the lower triangle of ``a`` (nonsingular)."""
    pa, n, lda = _square(a)
    pb, rows, cols, ldb = _operand(b, writes=True)
    if cols != n:
        raise ValueError(f"b has {cols} columns, the factor order {n}")
    with _LOCK:
        _INT[0], _INT[1], _INT[2], _INT[3] = rows, n, lda, ldb
        _trsm(_R, _L, _T, _N, _I0, _I1, _ONE, pa, _I2, pb, _I3)


def dsyrk(a: np.ndarray, c: np.ndarray) -> None:
    """c <- c - a a^T on and below the diagonal of ``c``, in place; the
    entries above it are neither read nor written."""
    pa, n, k, lda = _operand(a)
    pc, nc, ldc = _square(c, writes=True)
    if nc != n:
        raise ValueError(f"c has order {nc}, a has {n} rows")
    with _LOCK:
        _INT[0], _INT[1], _INT[2], _INT[3] = n, k, lda, ldc
        _syrk(_L, _N, _I0, _I1, _MINUS_ONE, pa, _I2, _ONE, pc, _I3)
