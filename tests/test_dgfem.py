import itertools
import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hpexp import dgfem
from hpexp.harness import fit_slope, run_config, run_sweep
from hpexp.indexsets import BasisSpec, dof_count, enumerate_modes
from hpexp.orthopoly import gauss_rule


def _dg_sweep(n, family, p_list, gamma=10.0):
    return run_sweep({"name": "dg", "kind": "dg-sine", "n": n, "family": family,
                      "p_list": p_list, "gamma": gamma})


def _linear():
    g = lambda x, y: 1.0 + 2.0 * x - y
    grad = lambda x, y: (2.0 + 0.0 * x, -1.0 + 0.0 * y)
    return g, grad


def test_spec_validation():
    with pytest.raises(ValueError):
        dgfem.DgSpec("S", 2)
    with pytest.raises(ValueError):
        dgfem.DgSpec("Q", 0)
    with pytest.raises(ValueError):
        dgfem.DgSpec("Q", 2, gamma=0.0)


@pytest.mark.parametrize("family", ["Q", "P"])
def test_linear_consistency(family):
    g, grad = _linear()
    system = dgfem.assemble_sip(4, dgfem.DgSpec(family, 2), lambda x, y: 0.0 * x, g)
    sol = dgfem.dg_solve(system)
    errs = dgfem.dg_errors(sol, g, grad)
    assert errs["l2"] < 1e-10
    assert errs["broken_h1"] < 1e-10
    assert errs["dg_norm"] < 1e-10


def test_system_symmetry():
    system = dgfem.assemble_sip(4, dgfem.DgSpec("P", 3),
                                lambda x, y: np.sin(x + y), lambda x, y: 0.0 * x)
    A = system.matrix
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()


def _reference_sip(n, spec, f, g):
    """The per-facet assembly loop, kept as the reference: the COO triplets
    of every block in loop order, and the rhs with the boundary data added
    facet by facet before the volume load."""
    p, h = spec.p, 1.0 / n
    a = h / 2.0
    modes = enumerate_modes(BasisSpec(2, p, spec.family))
    nm = len(modes)
    lower = dgfem._lower_corners(n, 0.0, h)
    K_vol = dgfem._volume_stiffness(modes, p)
    frule = gauss_rule(p + 2)
    tval, tder = dgfem._trace_tables(modes, p, frule.nodes)
    sigma = spec.gamma * max(p, 1) ** 2 / h
    wfac = frule.weights * a
    rows, cols, data = [], [], []
    rhs = np.zeros(n * n * nm)

    def add_block(ea, eb, block):
        rows.append(np.repeat(np.arange(nm) + ea * nm, nm))
        cols.append(np.tile(np.arange(nm) + eb * nm, nm))
        data.append(block.ravel())

    def facet_pair(eminus, eplus, axis):
        Tm, Tp = tval[axis][1], tval[axis][0]
        Dm, Dp = tder[axis][1] / a, tder[axis][0] / a
        for (ea, Ta, Da, sa) in ((eminus, Tm, Dm, 1.0), (eplus, Tp, Dp, -1.0)):
            for (eb, Tb, Db, sb) in ((eminus, Tm, Dm, 1.0), (eplus, Tp, Dp, -1.0)):
                add_block(ea, eb, sigma * sa * sb * (Ta * wfac) @ Tb.T
                          - 0.5 * sb * (Da * wfac) @ Tb.T
                          - 0.5 * sa * (Ta * wfac) @ Db.T)

    def facet_boundary(e, axis, side, fixed):
        sidx = 0 if side < 0 else 1
        T = tval[axis][sidx]
        D = tder[axis][sidx] * (side / a)
        add_block(e, e, sigma * (T * wfac) @ T.T - (D * wfac) @ T.T
                  - (T * wfac) @ D.T)
        tang = lower[e][1 - axis] + a * (frule.nodes + 1.0)
        pts = (np.full_like(tang, fixed), tang) if axis == 0 \
            else (tang, np.full_like(tang, fixed))
        gv = np.asarray(g(*pts), dtype=float) * np.ones_like(tang)
        rhs[e * nm:(e + 1) * nm] += (sigma * T - D) @ (wfac * gv)

    for e in range(n * n):
        add_block(e, e, K_vol)
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                facet_pair(i * n + j, (i + 1) * n + j, axis=0)
            if j + 1 < n:
                facet_pair(i * n + j, i * n + j + 1, axis=1)
    for j in range(n):
        facet_boundary(j, 0, -1.0, 0.0)
        facet_boundary((n - 1) * n + j, 0, +1.0, 1.0)
    for i in range(n):
        facet_boundary(i * n, 1, -1.0, 0.0)
        facet_boundary(i * n + n - 1, 1, +1.0, 1.0)
    # the volume load alone: with g = 0 the boundary terms add zeros
    rhs += dgfem.assemble_sip(n, spec, f, lambda x, y: 0.0 * x).rhs
    A = sp.coo_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n * n * nm,) * 2).tocsr()
    return A, rhs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family, p_list", [("Q", [1, 2, 5, 8]),
                                            ("P", [1, 3, 6, 10])])
def test_sip_gathers_match_per_facet_loop(family, p_list, n):
    f = lambda x, y: np.sin(3.0 * x) * np.cos(y)
    g = lambda x, y: np.exp(0.3 * x) * np.cos(1.7 * y + 0.1) + x ** (2 / 3)
    for p in p_list:
        spec = dgfem.DgSpec(family, p)
        system = dgfem.assemble_sip(n, spec, f, g)
        A, rhs = _reference_sip(n, spec, f, g)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(system.matrix, field),
                                  getattr(A, field)), (p, field)
        assert np.array_equal(system.rhs, rhs), p


def test_dof_counts():
    recs = _dg_sweep(8, "P", [3])
    assert recs[0].dof == 64 * dof_count(BasisSpec(2, 3, "P")) == 640


def test_interpolant_errors_and_jumps():
    # globally smooth polynomial inside the broken space: all errors vanish
    # and the interior jumps are zero up to roundoff
    g = lambda x, y: (x - 0.3) ** 2 + x * y + 2.0
    grad = lambda x, y: (2.0 * (x - 0.3) + y, x + 0.0 * y)
    spec = dgfem.DgSpec("Q", 2)
    interp = dgfem.broken_interpolant(spec, 4, g)
    errs = dgfem.dg_errors(interp, g, grad)
    assert errs["l2"] < 1e-12 and errs["dg_norm"] < 1e-10


def test_dg_norm_dominates_broken_h1():
    recs = _dg_sweep(4, "Q", [2, 3, 4])
    for r in recs:
        assert r.error("dg_norm") >= r.error("broken_h1")


def test_consistency_residual_of_interpolant():
    """The in-space interpolant of the exact solution nearly solves the SIP
    system: residual bounded by the interpolation-error scale."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    spec = dgfem.DgSpec("Q", 4)
    system = dgfem.assemble_sip(4, spec, f, exact)
    interp = dgfem.broken_interpolant(spec, 4, exact)
    resid = system.matrix @ interp.coeffs.ravel() - system.rhs
    errs = dgfem.dg_errors(interp, exact, grad)
    assert np.linalg.norm(resid) / np.linalg.norm(system.rhs) \
        <= 25.0 * errs["dg_norm"]
    # quasi-optimality: the SIP solution beats the broken L2 interpolant
    sol = dgfem.dg_solve(system)
    assert dgfem.dg_errors(sol, exact, grad)["dg_norm"] <= 1.5 * errs["dg_norm"]


def test_penalty_changes_converged_error_mildly():
    base = _dg_sweep(4, "Q", [8], gamma=10.0)[0].error("dg_norm")
    double = _dg_sweep(4, "Q", [8], gamma=20.0)[0].error("dg_norm")
    assert abs(double - base) / base < 0.2


def test_indefinite_with_tiny_penalty():
    g, _ = _linear()
    system = dgfem.assemble_sip(3, dgfem.DgSpec("Q", 3, gamma=1e-4),
                                lambda x, y: 0.0 * x, g)
    with pytest.raises(dgfem.IndefiniteSipError) as info:
        dgfem.dg_solve(system)
    # the pivot count is the number of negative eigenvalues
    n_neg = int(np.count_nonzero(np.linalg.eigvalsh(system.matrix.toarray()) < 0))
    assert n_neg > 0
    assert f"{n_neg} non-positive pivot(s) of {system.matrix.shape[0]}" \
        in str(info.value)
    # a sweep records the failure with its class, NaN errors and dof -1
    rec, = _dg_sweep(2, "Q", [2], gamma=1e-6)
    assert rec.extra["error_class"] == "IndefiniteSipError"
    assert rec.extra["error_message"] and rec.dof == -1
    assert set(rec.errors) == {"l2", "broken_h1", "dg_norm"}
    assert all(np.isnan(v) for v in rec.errors.values())


def test_sweep_records_and_l2_rate():
    recs = _dg_sweep(4, "Q", list(range(2, 8)))
    dg = [r.error("dg_norm") for r in recs]
    l2 = [r.error("l2") for r in recs]
    h1 = [r.error("broken_h1") for r in recs]
    # errors non-increasing in p (recorded; SIP constants vary mildly)
    drops = sum(1 for a, b in zip(dg, dg[1:]) if b <= a)
    assert drops >= len(dg) - 2
    # adjoint consistency: L2 decays at least as fast as broken H1 (recorded)
    slope_l2 = np.log(l2[0] / l2[-1])
    slope_h1 = np.log(h1[0] / h1[-1])
    assert slope_l2 >= slope_h1 * 0.99
    # broken-H1 error decays exponentially in p
    fit = fit_slope(recs, abscissa="p", error_key="broken_h1")
    assert fit.r_squared >= 0.98


_PIVOT_COUNT = re.compile(r"(\d+) non-positive pivot\(s\) of (\d+)")


def test_definiteness_verdict_matches_dense_cholesky():
    """dg_solve solves exactly the systems dense Cholesky accepts, and names
    the number of non-positive eigenvalues of the others.  The grid reaches both
    verdicts: from the COLAMD LU's own pivots, and from the symmetric-mode
    factorization when a row pivot left the diagonal."""
    f = lambda x, y: np.sin(3.0 * x) * np.cos(y)
    g = lambda x, y: 1.0 + x - y
    # (2, 1.0, P, 5) is SPD, but its COLAMD LU pivots off the diagonal
    grid = list(itertools.product([1, 2, 3], [1e-6, 0.3, 1.0, 10.0], "QP",
                                  [1, 3, 5])) + [(2, 1.0, "P", 5)]
    paths = set()
    for n, gamma, family, p in grid:
        system = dgfem.assemble_sip(n, dgfem.DgSpec(family, p, gamma), f, g)
        A = system.matrix
        lu = spla.splu(A.tocsc(), permc_spec="COLAMD")
        paths.add(dgfem._nonpositive_pivots(lu) is None)
        eig = np.linalg.eigvalsh(A.toarray())
        try:
            np.linalg.cholesky(A.toarray())
            spd = True
        except np.linalg.LinAlgError:
            spd = False
        case = (n, gamma, family, p)
        if spd:
            sol = dgfem.dg_solve(system)
            assert np.all(np.isfinite(sol.coeffs)), case
            assert sol.residual_norm < 1e-8, case
        else:
            with pytest.raises(dgfem.IndefiniteSipError) as info:
                dgfem.dg_solve(system)
            count = _PIVOT_COUNT.search(str(info.value))
            assert count, (case, str(info.value))
            # an eigenvalue at round-off level may count either way
            tol = 1e-10 * np.abs(eig).max()
            assert np.count_nonzero(eig < -tol) <= int(count.group(1)) \
                <= np.count_nonzero(eig <= tol), case
            assert int(count.group(2)) == A.shape[0], case
    assert paths == {True, False}


def test_off_diagonal_pivot_has_no_certificate():
    swap = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(dgfem.IndefiniteSipError, match="permutations differ"):
        dgfem._factor_spd(swap)


@pytest.mark.parametrize("family, p", [("Q", 4), ("P", 6)])
def test_solve_is_bitwise_the_spsolve_solution(family, p):
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(4, dgfem.DgSpec(family, p), f, exact)
    reference = spla.spsolve(system.matrix.tocsc(), system.rhs)
    sol = dgfem.dg_solve(system)
    assert np.array_equal(sol.coeffs.ravel(), reference)


def test_asymmetric_system_raises():
    g, _ = _linear()
    base = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2), lambda x, y: 0.0 * x, g)
    assert dgfem._asymmetry(base.matrix, base.matrix.tocsc()) < 1e-12
    # one stored entry changed, then one entry outside the symmetric pattern
    for i, j in ((0, 1), (0, base.matrix.shape[0] - 1)):
        A = base.matrix.tolil()
        A[i, j] += 1.0
        base.matrix = A.tocsr()
        with pytest.raises(dgfem.IndefiniteSipError, match="not symmetric"):
            dgfem.dg_solve(base)
        assert dgfem._asymmetry(base.matrix, base.matrix.tocsc()) == 1.0


def test_nan_entry_fails_the_symmetry_check():
    g, _ = _linear()
    system = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2),
                                lambda x, y: 0.0 * x, g)
    system.matrix.data[system.matrix.indptr[3]] = np.nan
    with pytest.raises(dgfem.IndefiniteSipError, match="not symmetric"):
        dgfem.dg_solve(system)


@pytest.mark.parametrize("n", [0, -1])
def test_mesh_size_below_one_raises(n):
    spec = dgfem.DgSpec("Q", 2)
    zero = lambda x, y: 0.0 * x
    with pytest.raises(ValueError, match="need n >= 1"):
        dgfem.assemble_sip(n, spec, zero, zero)
    with pytest.raises(ValueError, match="need n >= 1"):
        dgfem.broken_interpolant(spec, n, zero)


@pytest.mark.parametrize("domain", [(1.0, 0.0), (0.5, 0.5), (0.0, np.nan)])
def test_domain_not_running_upward_raises(domain):
    # a reversed domain gives h < 0, and the solve then returned a wrong
    # dg_norm with no error
    spec = dgfem.DgSpec("Q", 2)
    g, _ = _linear()
    with pytest.raises(ValueError, match="lo < hi"):
        dgfem.assemble_sip(2, spec, lambda x, y: 0.0 * x, g, domain=domain)
    with pytest.raises(ValueError, match="lo < hi"):
        dgfem.broken_interpolant(spec, 2, g, domain=domain)


@pytest.mark.parametrize("domain", [
    (0.0, 1.0, 5.0), [(0.0, 1.0), (0.0, 1.0)], (0.0,), ("0", "1"),
], ids=["three_values", "per_axis", "one_value", "strings"])
def test_domain_not_one_pair_raises(domain):
    # a third value was dropped silently, and a per-axis domain died in
    # float() with an unnamed TypeError
    spec = dgfem.DgSpec("Q", 2)
    g, _ = _linear()
    with pytest.raises(ValueError, match=r"one \(lo, hi\) pair of reals"):
        dgfem.assemble_sip(2, spec, lambda x, y: 0.0 * x, g, domain=domain)
    with pytest.raises(ValueError, match=r"one \(lo, hi\) pair of reals"):
        dgfem.broken_interpolant(spec, 2, g, domain=domain)


def test_nan_load_raises():
    g, _ = _linear()
    system = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2),
                                lambda x, y: 0.0 * x, g)
    system.rhs[3] = np.nan
    with pytest.raises(dgfem.IndefiniteSipError, match="residual"):
        dgfem.dg_solve(system)


def test_singular_matrix_raises():
    g, _ = _linear()
    system = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2),
                                lambda x, y: 0.0 * x, g)
    keep = np.ones(system.matrix.shape[0])
    keep[5] = 0.0
    D = sp.diags(keep)
    system.matrix = (D @ system.matrix @ D).tocsr()     # a zero row and column
    with pytest.raises(dgfem.IndefiniteSipError):
        dgfem.dg_solve(system)


def test_records_carry_solver_diagnostics(tmp_path):
    sw = {"name": "dg", "kind": "dg-sine", "n": 2, "family": "Q",
          "p_list": [2, 3], "gamma": 10.0}
    recs = run_config({"sweeps": [sw]}, tmp_path)["dg"]
    for r in recs:
        assert 0.0 <= r.extra["residual"] < 1e-8
        assert r.extra["factor_nnz"] >= r.dof
    meta = json.loads((tmp_path / "dg.meta.json").read_text())
    assert meta["max_solver_residual"] == max(r.extra["residual"] for r in recs)
    header = (tmp_path / "dg.csv").read_text().splitlines()[0].split(",")
    assert {"residual", "factor_nnz"} <= set(header)
