"""The LAPACK binding to numpy's OpenBLAS against scipy.linalg: the same
results to round-off, the same info, only the named triangle written, and a
named ImportError where numpy's OpenBLAS lacks the routines."""

import ctypes.util
import importlib.util
import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sl
from scipy.linalg.blas import dsyrk as scipy_dsyrk
from scipy.linalg.lapack import dpotrf as scipy_dpotrf

from hpexp import blas, lapack

RTOL = 1e-13
SIZES = [0, 1, 8, 40, 300]


def _spd(n, seed=0):
    B = np.random.default_rng(seed).standard_normal((n, n))
    return B @ B.T / max(n, 1) + np.eye(n)


def _padded(M):
    """M as the top rows of an F-ordered buffer with three more rows of NaN:
    a column-major view whose leading dimension exceeds its row count."""
    buf = np.full((M.shape[0] + 3, M.shape[1]), np.nan, order="F")
    buf[:M.shape[0]] = M
    return buf, buf[:M.shape[0]]


def _close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("n", SIZES)
def test_dpotrf_and_dpotrs_match_scipy(n, lower):
    A = _spd(n)
    C = np.array(A, order="F")
    assert lapack.dpotrf(C, lower) == 0
    ref = sl.cholesky(A, lower=lower)
    other = np.triu(A, 1) if lower else np.tril(A, -1)
    _close(np.tril(C) if lower else np.triu(C), ref)
    assert np.array_equal(C - (np.tril(C) if lower else np.triu(C)), other)
    b = np.random.default_rng(1).standard_normal((n, 3))
    buf, x = _padded(b)
    lapack.dpotrs(C, x, lower)
    _close(x, sl.cho_solve((ref, lower), b))
    assert np.isnan(buf[n:]).all()


@pytest.mark.parametrize("n", SIZES)
def test_dtrtrs_matches_scipy(n):
    L = sl.cholesky(_spd(n), lower=True)
    b = np.random.default_rng(2).standard_normal(n)
    for trans in (False, True):
        x = b.copy()
        lapack.dtrtrs(np.asfortranarray(L), x, trans=trans)
        _close(x, sl.solve_triangular(L, b, lower=True, trans=int(trans)))


@pytest.mark.parametrize("n", SIZES)
def test_dtrsm_matches_scipy(n):
    L = np.asfortranarray(sl.cholesky(_spd(n), lower=True))
    B = np.random.default_rng(3).standard_normal((5, n))
    buf, X = _padded(B)
    lapack.dtrsm(L, X)
    _close(X, sl.solve_triangular(L, B.T, lower=True).T)
    assert np.isnan(buf[5:]).all()


@pytest.mark.parametrize("n", SIZES)
def test_dsyrk_matches_scipy_and_writes_the_lower_triangle_only(n):
    rng = np.random.default_rng(4)
    A = np.asfortranarray(rng.standard_normal((n, 7)))
    C0 = rng.standard_normal((n, n))
    buf, C = _padded(C0)
    lapack.dsyrk(A, C)
    want = (np.tril(scipy_dsyrk(-1.0, A, beta=1.0, c=C0, lower=1)) if n
            else C0)
    _close(np.tril(C), want)
    assert np.array_equal(np.triu(C, 1), np.triu(C0, 1))
    assert np.isnan(buf[n:]).all()


@pytest.mark.parametrize("lower", [True, False])
def test_dpotrf_reports_scipys_info_on_an_indefinite_matrix(lower):
    A = _spd(8)
    A[3, 3] = -1.0
    want = scipy_dpotrf(A, lower=int(lower))[1]
    assert want == 4
    assert lapack.dpotrf(np.array(A, order="F"), lower) == want


def test_rejects_operands_not_column_major_or_read_only():
    L = np.asfortranarray(sl.cholesky(_spd(4), lower=True))
    with pytest.raises(ValueError, match="column-major"):
        lapack.dtrsm(L, np.ones((3, 4)))            # C-ordered
    with pytest.raises(ValueError, match="column-major"):
        lapack.dtrtrs(L, np.ones(8)[::2])           # strided vector
    with pytest.raises(ValueError, match="column-major"):
        lapack.dtrtrs(L, np.ones(4, dtype=np.float32))
    frozen = np.ones(4)
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        lapack.dtrtrs(L, frozen)
    with pytest.raises(ValueError, match="rows"):
        lapack.dtrtrs(L, np.ones(5))


def test_concurrent_calls_keep_their_own_arguments_and_info():
    # the integer buffers are shared and the foreign call releases the
    # interpreter lock: threads calling with other orders and other
    # outcomes must each get the single-threaded result
    cases = []
    for n in (3, 8, 17, 40):
        A = _spd(n)
        if n % 2:
            A[n // 2, n // 2] = -1.0            # dpotrf's info is n // 2 + 1
        b = np.random.default_rng(n).standard_normal(n)
        L = np.array(A, order="F")
        info = lapack.dpotrf(L)
        x = b.copy()
        lapack.dtrtrs(L, x)
        cases.append((A, b, info, x))
    bad = []

    def work(A, b, info, x):
        for _ in range(200):
            L = np.array(A, order="F")
            got = b.copy()
            ok = lapack.dpotrf(L) == info
            lapack.dtrtrs(L, got)
            if not (ok and np.array_equal(got, x)):
                bad.append(A.shape[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=case)
                   for case in cases * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def _fresh_import():
    """Run hpexp/lapack.py as a new module, leaving the imported one alone."""
    spec = importlib.util.find_spec("hpexp.lapack")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


@pytest.mark.parametrize("found", ["none", "libm", "scipy"])
def test_missing_routines_raise_a_named_import_error(monkeypatch, found):
    # no OpenBLAS, a library without the routines, and scipy's OpenBLAS,
    # whose routines take 32-bit integers under other names
    paths = {"none": [], "libm": [ctypes.util.find_library("m")],
             "scipy": [p for p in blas._paths() if "openblas64_" not in p]}
    if found == "scipy" and not paths["scipy"]:
        pytest.skip("scipy's OpenBLAS is not loaded")
    monkeypatch.setattr(blas, "_paths", lambda: paths[found])
    with pytest.raises(ImportError, match="numpy's OpenBLAS"):
        _fresh_import()
    monkeypatch.undo()
    _fresh_import()
