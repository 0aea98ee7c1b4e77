import itertools
import json
import re
import weakref

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
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dgfem.DgSpec("Q", 2, gamma=gamma)


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
    A = system.matrix.tocsc()
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()


def _reference_sip(n, spec, f, g):
    """The per-facet assembly loop, kept as the reference: the CSR matrix of
    scipy's COO-to-CSR conversion of every block in loop order, and the rhs
    with the boundary data added facet by facet before the volume load."""
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


def _reference_asymmetry(A, A_csc):
    """max |A - A^T| from A's CSR and CSC arrays, as dg_solve took it before
    the block-level check: the CSC arrays of A are the CSR arrays of A^T."""
    if (np.array_equal(A.indptr, A_csc.indptr)
            and np.array_equal(A.indices, A_csc.indices)):
        return float(np.abs(A.data - A_csc.data).max(initial=0.0))
    return float(abs(A - A_csc.T).max())


def _assert_bitwise_equal(expanded, reference, case):
    for field in ("indptr", "indices"):
        assert (getattr(expanded, field).dtype
                == getattr(reference, field).dtype), (case, field)
        assert np.array_equal(getattr(expanded, field),
                              getattr(reference, field)), (case, field)
    assert np.array_equal(expanded.data.view(np.int64),
                          reference.data.view(np.int64)), (case, "data")


# n = 3 is the smallest mesh with all 9 key patterns (interior, 4 edges and
# 4 corners); n = 8 is the dg workload's mesh
@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("family, p_list", [("Q", range(1, 11)),
                                            ("P", range(1, 13))])
def test_sip_gathers_match_per_facet_loop(family, p_list, n):
    f = lambda x, y: np.sin(3.0 * x) * np.cos(y)
    g = lambda x, y: np.exp(0.3 * x) * np.cos(1.7 * y + 0.1) + x ** (2 / 3)
    for p in p_list:
        spec = dgfem.DgSpec(family, p)
        system = dgfem.assemble_sip(n, spec, f, g)
        A, rhs = _reference_sip(n, spec, f, g)
        A_csc = A.tocsc()
        _assert_bitwise_equal(system.matrix.tocsc(), A_csc, p)
        assert system.matrix.asymmetry() == _reference_asymmetry(A, A_csc), p
        assert np.array_equal(system.rhs, rhs), p


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("family", ["Q", "P"])
def test_operator_shape_and_nnz_are_those_of_its_expansion(family, n):
    # the traced benchmark counts dgfem.n_dof and dgfem.matrix_nnz from them
    zero = lambda x, y: 0.0 * x
    for p in (1, 2, 5, 10):
        operator = dgfem.assemble_sip(n, dgfem.DgSpec(family, p), zero,
                                      zero).matrix
        expanded = operator.tocsc()
        assert operator.shape == expanded.shape, p
        assert operator.nnz == expanded.nnz, p


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
    resid = system.matrix.tocsc() @ interp.coeffs.ravel() - system.rhs
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
    eig = np.linalg.eigvalsh(system.matrix.tocsc().toarray())
    n_neg = int(np.count_nonzero(eig < 0))
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
    the number of non-positive eigenvalues of the others.  Two of the SPD
    systems are ones on which partial pivoting leaves the diagonal: the
    diagonal-pivot LU solves them."""
    f = lambda x, y: np.sin(3.0 * x) * np.cos(y)
    g = lambda x, y: 1.0 + x - y
    # (2, 1.0, P, 5) is SPD, but partial pivoting leaves its diagonal
    grid = list(itertools.product([1, 2, 3], [1e-6, 0.3, 1.0, 10.0], "QP",
                                  [1, 3, 5]))
    residuals = {}
    for n, gamma, family, p in grid:
        system = dgfem.assemble_sip(n, dgfem.DgSpec(family, p, gamma), f, g)
        A = system.matrix.tocsc()
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
            residuals[case] = sol.residual_norm
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
    for case in [(2, 1.0, "P", 5), (3, 1.0, "P", 5)]:
        n, gamma, family, p = case
        system = dgfem.assemble_sip(n, dgfem.DgSpec(family, p, gamma), f, g)
        # scipy's default (partial-pivot) COLAMD LU leaves the diagonal here
        lu = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD")
        assert not np.array_equal(lu.perm_r, lu.perm_c), case
        assert residuals[case] < 1e-8, case


def _block_operator(A, nm):
    """A SipOperator with one block per stored element pair of the scipy
    matrix A, whose elements hold nm unknowns each."""
    A = A.tocoo()
    ne = A.shape[0] // nm
    pairs = np.unique(A.row // nm * ne + A.col // nm)
    rows, cols = np.divmod(pairs, ne)
    blocks = A.toarray().reshape(ne, nm, ne, nm)[rows, :, cols, :]
    return dgfem.SipOperator(
        blocks=blocks, terms=np.stack([rows, cols, np.arange(pairs.size)], -1),
        n_elements=ne)


def test_zero_diagonal_pivot_raises():
    # two 1 x 1 element blocks, each the other's only neighbour
    swap = dgfem.SipOperator(blocks=np.ones((1, 1, 1)),
                             terms=np.array([[0, 1, 0], [1, 0, 0]]),
                             n_elements=2)
    system = dgfem.DgSystem(spec=dgfem.DgSpec("Q", 1), n=1, h=1.0,
                            lower=np.zeros((2, 2)), modes=[(0, 0)],
                            matrix=swap, rhs=np.ones(2))
    with pytest.raises(dgfem.IndefiniteSipError,
                       match="zero diagonal pivot at elimination step 0 of 2"):
        dgfem.dg_solve(system)


@pytest.mark.parametrize("n, family, p", [
    pytest.param(4, "Q", 4, id="Q-4"),
    pytest.param(4, "P", 6, id="P-6"),
    # the CI smoke system, at the dg workload's mesh size: 4096 dof
    pytest.param(8, "Q", 7, id="Q-7-n8")])
def test_solve_is_bitwise_the_spsolve_solution(n, family, p):
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(n, dgfem.DgSpec(family, p), f, exact)
    reference = spla.spsolve(system.matrix.tocsc(), system.rhs)
    sol = dgfem.dg_solve(system)
    assert np.array_equal(sol.coeffs.ravel(), reference)


def test_expanded_matrices_are_freed_before_the_pivot_read(monkeypatch):
    """scipy's SuperLU.U builds copies of L and U, so dg_solve reads it only
    once the expanded CSC is freed; the residual, taken with the CSC matvec,
    is bit for bit the CSR matvec's."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(8, dgfem.DgSpec("Q", 7), f, exact)
    expanded, alive_at_read = [], []
    tocsc, splu = dgfem.SipOperator.tocsc, dgfem.spla.splu

    def tracked_tocsc(operator, *args):
        A = tocsc(operator, *args)
        expanded.append(weakref.ref(A))
        return A

    class TrackedLU:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            if name == "U" and not alive_at_read:
                alive_at_read.append([ref() is not None for ref in expanded])
            return getattr(self._lu, name)

    def tracked_splu(A_csc, **kwargs):
        return TrackedLU(splu(A_csc, **kwargs))

    monkeypatch.setattr(dgfem.SipOperator, "tocsc", tracked_tocsc)
    monkeypatch.setattr(dgfem.spla, "splu", tracked_splu)
    sol = dgfem.dg_solve(system)
    assert alive_at_read == [[False]]      # the one CSC
    A = sp.csr_matrix(tocsc(system.matrix))
    res = (np.linalg.norm(A @ sol.coeffs.ravel() - system.rhs)
           / max(np.linalg.norm(system.rhs), 1e-300))
    assert sol.residual_norm == res


def test_solve_builds_the_element_pairs_once(monkeypatch):
    """dg_solve builds SipOperator._pairs once, for both the symmetry check
    and the expansion, and drops it before the factorization: its blocks
    are not alive while SuperLU runs."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(3, dgfem.DgSpec("Q", 3), f, exact)
    built, alive_at_splu = [], []
    pairs, splu = dgfem.SipOperator._pairs, dgfem.spla.splu

    def counted_pairs(operator):
        out = pairs(operator)
        built.append(weakref.ref(out[3]))
        return out

    def tracked_splu(A_csc, **kwargs):
        alive_at_splu.append([ref() is not None for ref in built])
        return splu(A_csc, **kwargs)

    monkeypatch.setattr(dgfem.SipOperator, "_pairs", counted_pairs)
    monkeypatch.setattr(dgfem.spla, "splu", tracked_splu)
    sol = dgfem.dg_solve(system)
    assert len(built) == 1 and alive_at_splu == [[False]]
    assert sol.residual_norm < 1e-12


def test_asymmetric_system_raises():
    g, _ = _linear()
    base = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2), lambda x, y: 0.0 * x, g)
    nm = len(base.modes)
    assert base.matrix.asymmetry() < 1e-12
    # one stored entry changed, then one entry outside the symmetric pattern
    for i, j in ((0, 1), (0, base.matrix.shape[0] - 1)):
        A = base.matrix.tocsc().tolil()
        A[i, j] += 1.0
        base.matrix = _block_operator(A, nm)
        with pytest.raises(dgfem.IndefiniteSipError, match="not symmetric"):
            dgfem.dg_solve(base)
        assert base.matrix.asymmetry() == 1.0


def test_nan_entry_fails_the_symmetry_check():
    g, _ = _linear()
    system = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2),
                                lambda x, y: 0.0 * x, g)
    A = sp.csr_matrix(system.matrix.tocsc())
    A.data[A.indptr[3]] = np.nan
    system.matrix = _block_operator(A, len(system.modes))
    with pytest.raises(dgfem.IndefiniteSipError, match="not symmetric"):
        dgfem.dg_solve(system)


def _hand_made_system(extra_terms=(), nan=False):
    """3 elements of 4 unknowns: several terms on each diagonal pair and on
    the pairs (0, 1) and (1, 0), the terms in shuffled order.  Each block-row
    holds more than 16 keys, so scipy's sort runs the unstable introsort.
    Symmetric and positive definite as it stands; ``extra_terms`` add
    (row element, column element, block) terms, and ``nan`` adds a term
    with a NaN entry to the last diagonal pair."""
    rng = np.random.default_rng(7)
    nm = 4
    sym = [M + M.T for M in rng.standard_normal((3, nm, nm))
           * np.array([1.0, 1e-7, 1e5])[:, None, None]]
    off = list(rng.standard_normal((3, nm, nm)) * [[[1.0]], [[1e-9]], [[3.0]]])
    nan_block = np.zeros((nm, nm))
    nan_block[2, 3] = np.nan
    blocks = np.stack(sym + off + [M.T for M in off]
                      + [1e7 * np.eye(nm), nan_block])
    terms = ([(e, e, b) for e in range(3) for b in (9, 0, 1, 2, 0, 1)]
             + [(0, 1, b) for b in (3, 4, 5)] + [(1, 0, b) for b in (6, 7, 8)]
             + list(extra_terms) + ([(2, 2, 10)] if nan else []))
    terms = np.array(terms)[rng.permutation(len(terms))]
    operator = dgfem.SipOperator(blocks=blocks, terms=terms, n_elements=3)
    return dgfem.DgSystem(spec=dgfem.DgSpec("Q", 1), n=1, h=1.0,
                          lower=np.zeros((3, 2)), modes=[(0, 0)] * nm,
                          matrix=operator, rhs=np.ones(3 * nm))


def _coo_reference(operator):
    """The CSC of scipy's COO-to-CSR conversion of every term in table
    order, converted on to CSC."""
    nm = operator.blocks.shape[1]
    rows, cols, bid = operator.terms.T
    local_rows = np.repeat(np.arange(nm), nm)
    local_cols = np.tile(np.arange(nm), nm)
    return sp.coo_matrix(
        (operator.blocks[bid].ravel(),
         ((rows[:, None] * nm + local_rows).ravel(),
          (cols[:, None] * nm + local_cols).ravel())),
        shape=operator.shape).tocsr().tocsc()


def test_hand_made_operator_is_bitwise_its_coo_conversion():
    base = _hand_made_system()
    scale = np.abs(base.matrix.tocsc().data).max()
    assert base.matrix.asymmetry() < 1e-15 * scale
    assert dgfem.dg_solve(base).residual_norm < 1e-8
    # a pair with no transposed partner, and a NaN block
    for system in (_hand_made_system(extra_terms=[(0, 2, 3)]),
                   _hand_made_system(nan=True)):
        with pytest.raises(dgfem.IndefiniteSipError, match="not symmetric"):
            dgfem.dg_solve(system)
    everything = _hand_made_system(extra_terms=[(0, 2, 3), (0, 2, 4)],
                                   nan=True)
    operator = everything.matrix
    _assert_bitwise_equal(operator.tocsc(), _coo_reference(operator),
                          "hand-made")
    # np.max carries the NaN where Python's max(1.0, nan) would drop it:
    # the unpartnered pair (0, 2) comes before the NaN diagonal (2, 2)
    assert np.isnan(operator.asymmetry())
    # the sums are scipy's and not the table's order: adding each pair's
    # terms in table order gives other bits
    nm = operator.blocks.shape[1]
    table_order = np.zeros((3, nm, 3, nm))
    for row, col, block in base.matrix.terms:
        table_order[row, :, col, :] += base.matrix.blocks[block]
    expanded = base.matrix.tocsc().toarray().reshape(3, nm, 3, nm)
    assert not np.array_equal(expanded, table_order)
    assert np.allclose(expanded, table_order, rtol=1e-12, atol=1e-6)


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
    # a zero row and column
    system.matrix = _block_operator(D @ system.matrix.tocsc() @ D,
                                    len(system.modes))
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
