import itertools
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hpexp import dgfem, fem
from hpexp.harness import fit_slope, run_config, run_sweep
from hpexp.indexsets import BasisSpec, dof_count, enumerate_modes
from hpexp.orthopoly import gauss_rule, legendre_deriv_table, legendre_table


def _dg_sweep(n, family, p_list, gamma=10.0):
    return run_sweep({"name": "dg", "kind": "dg-sine", "n": n, "family": family,
                      "p_list": p_list, "gamma": gamma})


def _csc(operator, pairs=None):
    """The expansion of a ``SipOperator``, its raw CSC arrays, as a scipy
    matrix."""
    return sp.csc_matrix(operator._tocsc(pairs), shape=operator.shape)


def _linear():
    g = lambda x, y: 1.0 + 2.0 * x - y
    grad = lambda x, y: (2.0 + 0.0 * x, -1.0 + 0.0 * y)
    return g, grad


def test_spec_validation():
    with pytest.raises(ValueError):
        dgfem.DgSpec("S", 2)
    with pytest.raises(ValueError):
        dgfem.DgSpec("Q", 0)
    # True solved as p = 1, and 2.5 failed inside assemble_sip with an
    # unnamed TypeError
    for p in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match="must be an integer"):
            dgfem.DgSpec("Q", p)
    assert dgfem.DgSpec("Q", np.int64(2)).p == 2
    # True was read as 1.0, and "10" failed with an unnamed TypeError
    for gamma in (0.0, float("nan"), float("inf"), True, "10"):
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
    A = _csc(system.matrix)
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()


def _reference_sip(n, spec, f, g):
    """The per-facet assembly loop, kept as the reference: the CSR matrix of
    scipy's COO-to-CSR conversion of every block in loop order, and the rhs
    with the boundary data added facet by facet before the volume load,
    which is computed element by element here: f at each element's own
    Gauss points, contracted with the Legendre table on each axis and read
    at the family's modes.  It takes no kernel from ``dgfem``: the volume
    block K1 x M1 + M1 x K1 of the exact 1D Legendre matrices, the per-mode
    traces of L_i(x) L_j(y) on each facet, and the penalty gamma p^2 / h
    are all formed here, so a fault in one of the assembly's own kernels
    cannot move the reference with it."""
    p, h = spec.p, 1.0 / n
    a = h / 2.0
    modes = enumerate_modes(BasisSpec(2, p, spec.family))
    nm = len(modes)
    lower = fem.mesh_uniform(2, n).elem_lower
    # int L_i L_j = 2 / (2i + 1) on the diagonal; int L_i' L_j' =
    # min(i, j) (min(i, j) + 1) where i + j is even, else 0
    M1 = np.diag([2.0 / (2 * i + 1) for i in range(p + 1)])
    K1 = np.zeros((p + 1, p + 1))
    for i, j in itertools.product(range(p + 1), repeat=2):
        if (i + j) % 2 == 0:
            K1[i, j] = min(i, j) * (min(i, j) + 1)
    at = [i * (p + 1) + j for i, j in modes]
    K_vol = (np.kron(K1, M1) + np.kron(M1, K1))[np.ix_(at, at)]
    frule = gauss_rule(p + 2)
    # tval[axis][side][mode]: the mode on the facet normal to axis at its
    # low (0) or high (1) end, and tder its derivative along the axis
    L = legendre_table(p, frule.nodes)
    ends = np.array([-1.0, 1.0])
    tval, tder = ([[np.array([tab[m[axis], side] * L[m[1 - axis]]
                              for m in modes]) for side in (0, 1)]
                   for axis in (0, 1)]
                  for tab in (legendre_table(p, ends),
                              legendre_deriv_table(p, 1, ends)))
    sigma = spec.gamma * p ** 2 / h
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
    vrule = gauss_rule(p + 10)
    LW = legendre_table(p, vrule.nodes) * vrule.weights
    for e in range(n * n):
        x, y = lower[e][:, None] + a * (vrule.nodes + 1.0)
        F = np.broadcast_to(np.asarray(f(x[:, None], y[None, :]), dtype=float),
                            (vrule.nodes.size,) * 2)
        # c[i, j] = sum_k,l L_i(x_k) w_k L_j(y_l) w_l f(x_k, y_l), axis 0 first
        c = (LW @ (LW @ F).T).T * a * a
        rhs[e * nm:(e + 1) * nm] += [c[i, j] for i, j in modes]
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
        _assert_bitwise_equal(_csc(system.matrix), A_csc, p)
        assert system.matrix.asymmetry() == _reference_asymmetry(A, A_csc), p
        assert np.array_equal(system.rhs, rhs), p


@pytest.mark.parametrize("family", ["Q", "P"])
def test_traces_of_one_hot_modes_are_the_per_mode_products(family):
    # the facet-trace kernel on one-hot coefficient tensors gives, bit for
    # bit, L_{m_a}(+-1) L_{m_t}(x_q) and L'_{m_a}(+-1) L_{m_t}(x_q), m_a the
    # mode's index on the normal axis and m_t the one along the facet; only
    # an exact zero may differ in sign (-1 * L_1(0) is -0.0, a sum of
    # products +0.0), which adds nothing to a sum with a non-zero term
    ends = np.array([-1.0, 1.0])
    for p in range(1, 13):
        modes = enumerate_modes(BasisSpec(2, p, family))
        nodes = gauss_rule(p + 2).nodes
        one_hot = np.zeros((len(modes), p + 1, p + 1))
        for k, (i, j) in enumerate(modes):
            one_hot[k, i, j] = 1.0
        L = legendre_table(p, nodes)
        for tab in (legendre_table(p, ends), legendre_deriv_table(p, 1, ends)):
            for axis, side in itertools.product((0, 1), repeat=2):
                want = np.array([tab[m[axis], side] * L[m[1 - axis]]
                                 for m in modes])
                got = dgfem._traces(one_hot, L.T, tab.T, axis, side)
                assert np.array_equal(got, want), (p, axis, side)
                assert np.array_equal(got.view(np.int64)[want != 0],
                                      want.view(np.int64)[want != 0])


@pytest.mark.parametrize("n, signatures", [(1, 1), (2, 4), (3, 9), (8, 9)])
def test_pairs_sorts_once_per_block_row_signature(monkeypatch, n,
                                                  signatures):
    # one scipy sort per distinct block-row (interior, edges and corners),
    # not one per block-row nor one per row of the matrix
    zero = lambda x, y: 0.0 * x
    sort, calls = dgfem._sparsetools.csr_sort_indices, []

    def counted(n_row, *arrays):
        calls.append(n_row)
        return sort(n_row, *arrays)

    monkeypatch.setattr(dgfem._sparsetools, "csr_sort_indices", counted)
    for family, p in (("Q", 1), ("P", 4)):
        calls.clear()
        dgfem.assemble_sip(n, dgfem.DgSpec(family, p), zero, zero).matrix \
            ._pairs()
        assert len(calls) == signatures, (family, p)
        assert all(rows == 1 for rows in calls), (family, p)


def _reference_terms(n):
    """The (row element, column element, block) table from the index
    arithmetic of an (n, n) element array, as the assembly built it before
    it read its facets from ``fem.Mesh``, kept as the reference."""
    E = np.arange(n * n).reshape(n, n)
    inner = np.stack([E // n < n - 1, E % n < n - 1], axis=-1)
    ends = np.stack([np.stack([E, E], axis=-1), np.stack([E + n, E + 1], -1)],
                    axis=-1)[inner]
    axis_of = np.nonzero(inner)[2]
    bnd = [np.stack([np.take(E, 0, axis), np.take(E, -1, axis)], -1).ravel()
           for axis in (0, 1)]
    ea = np.concatenate([E.ravel(), ends[:, [0, 0, 1, 1]].ravel()] + bnd)
    eb = np.concatenate([E.ravel(), ends[:, [0, 1, 0, 1]].ravel()] + bnd)
    bid = np.concatenate([np.zeros(n * n, dtype=np.int64),
                          (1 + 4 * axis_of[:, None] + np.arange(4)).ravel()]
                         + [np.tile([9 + 2 * axis, 10 + 2 * axis], n)
                            for axis in (0, 1)])
    return np.stack([ea, eb, bid], axis=-1)


@pytest.mark.parametrize("n", range(1, 9))
def test_term_table_from_the_mesh_equals_the_element_array_one(n):
    zero = lambda x, y: 0.0 * x
    terms = dgfem.assemble_sip(n, dgfem.DgSpec("Q", 1), zero, zero).matrix.terms
    reference = _reference_terms(n)
    assert terms.dtype == reference.dtype
    assert np.array_equal(terms, reference)


def test_lshape_facets():
    mesh = fem.mesh_lshape()
    inner, boundary = dgfem._facets(mesh)
    minus, plus, axis = inner.T
    # each interior facet joins two cells one step apart on its axis, and
    # every such pair of cells is one facet
    assert np.array_equal(mesh.cells[plus] - mesh.cells[minus],
                          np.eye(2, dtype=int)[axis])
    held = {tuple(c) for c in mesh.cells}
    steps = [(c, k) for c in map(tuple, mesh.cells) for k in (0, 1)
             if tuple(np.add(c, np.eye(2, dtype=int)[k])) in held]
    assert len(steps) == len(inner) == 16
    # a boundary facet has no cell across it, and every other facet has one
    assert sum(cells.size for sides in boundary for cells in sides) == 16
    for k in (0, 1):
        for side, cells in enumerate(boundary[k]):
            across = mesh.cells + (2 * side - 1) * np.eye(2, dtype=int)[k]
            open_ = [tuple(c) not in held for c in across]
            assert np.array_equal(cells, np.flatnonzero(open_)), (k, side)


def test_assembly_and_errors_read_one_boundary_coordinate():
    # on (0, 1) at n = 6, 5 h + h is one ulp below 6 h = 1, so a boundary
    # taken as the last corner plus h would lie inside the assembly's
    spec, seen = dgfem.DgSpec("Q", 2), {"assembly": [], "errors": []}

    def recorded(key):
        def u(x, y):
            seen[key].append((np.array(x), np.array(y)))
            return np.sin(np.pi * x) * np.sin(np.pi * y)
        return u

    zero = lambda x, y: 0.0 * x
    dgfem.assemble_sip(6, spec, zero, recorded("assembly"))
    dgfem.dg_errors(dgfem.broken_interpolant(spec, 6, zero),
                    recorded("errors"), lambda x, y: (0.0 * x, 0.0 * y))
    # the errors call the exact solution on the element grids first, then
    # per (axis, side) on the boundary, as the assembly calls g
    assembly, errors = seen["assembly"], seen["errors"][1:]
    assert len(assembly) == len(errors) == 4
    for (xa, ya), (xe, ye) in zip(assembly, errors):
        assert np.array_equal(xa, xe) and np.array_equal(ya, ye)
    assert np.all(assembly[1][0] == 1.0) and np.all(assembly[3][1] == 1.0)


@pytest.mark.parametrize("make_mesh", [lambda: fem.mesh_uniform(2, 6),
                                       fem.mesh_lshape],
                         ids=["uniform6", "lshape"])
def test_boundary_points_lie_at_the_facet_vertex_coordinate(make_mesh):
    # every boundary point DG evaluates (the assembly's g and the errors'
    # exact solution both go through _on_boundary) lies, on the facet's
    # normal axis, at mesh._coords of the facet's lower lattice vertex, bit
    # for bit, and along the facet at its cell's Gauss points
    mesh, nodes = make_mesh(), gauss_rule(5).nodes
    _, boundary = dgfem._facets(mesh)
    for axis, side in itertools.product((0, 1), repeat=2):
        cells, seen = boundary[axis][side], []

        def g(*xs):
            seen.append([np.broadcast_to(x, np.broadcast_shapes(
                *map(np.shape, xs))).reshape(cells.size, -1) for x in xs])
            return 0.0 * xs[0]

        dgfem._on_boundary(g, mesh, cells, axis, side, nodes)
        vertex = 2 * (mesh.cells[cells] + side * np.eye(2, dtype=int)[axis])
        across = fem._coords(mesh, vertex)[:, axis, None]
        normal, along = seen[0][axis], seen[0][1 - axis]
        assert normal.shape == (cells.size, nodes.size), (axis, side)
        assert np.array_equal(normal.view(np.int64),
                              np.broadcast_to(across, normal.shape)
                              .view(np.int64)), (axis, side)
        tang = (mesh.elem_lower[cells, 1 - axis, None]
                + mesh.h / 2 * (nodes + 1))
        assert np.array_equal(along, tang), (axis, side)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("family", ["Q", "P"])
def test_operator_shape_and_nnz_are_those_of_its_expansion(family, n):
    # the traced benchmark counts dgfem.n_dof and dgfem.matrix_nnz from them
    zero = lambda x, y: 0.0 * x
    for p in (1, 2, 5, 10):
        operator = dgfem.assemble_sip(n, dgfem.DgSpec(family, p), zero,
                                      zero).matrix
        expanded = _csc(operator)
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
    resid = _csc(system.matrix) @ interp.coeffs.ravel() - system.rhs
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
    eig = np.linalg.eigvalsh(_csc(system.matrix).toarray())
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
        A = _csc(system.matrix)
        eig = np.linalg.eigvalsh(A.toarray())
        try:
            np.linalg.cholesky(A.toarray())
            spd = True
        except np.linalg.LinAlgError:
            spd = False
        case = (n, gamma, family, p)
        try:
            lu = spla.splu(A, permc_spec="COLAMD", diag_pivot_thresh=0.0)
        except RuntimeError:
            lu = None
        if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
            # the pivots read in place are scipy's diag(U), bit for bit
            assert np.array_equal(dgfem._pivots(lu), lu.U.diagonal()), case
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
        lu = spla.splu(_csc(system.matrix), permc_spec="COLAMD")
        assert not np.array_equal(lu.perm_r, lu.perm_c), case
        assert residuals[case] < 1e-8, case


def _row_mesh(ne):
    """A mesh of ne unit cells in a row, for hand-built systems."""
    cells = np.stack([np.zeros(ne, dtype=int), np.arange(ne)], axis=-1)
    return fem.Mesh(dim=2, h=1.0, origin=np.zeros(2), cells=cells)


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
    system = dgfem.DgSystem(spec=dgfem.DgSpec("Q", 1), mesh=_row_mesh(2),
                            modes=[(0, 0)], matrix=swap, rhs=np.ones(2))
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
    reference = spla.spsolve(_csc(system.matrix), system.rhs)
    sol = dgfem.dg_solve(system)
    assert np.array_equal(sol.coeffs.ravel(), reference)


@pytest.mark.parametrize("family, p", [("Q", 7), ("P", 9)])
def test_solve_is_bitwise_the_public_splu_one(monkeypatch, family, p):
    """dg_solve calls SuperLU as ``splu`` does, with its options: on the dg
    workload's mesh the solution, the residual and the pivots are bit for
    bit those of the public ``splu`` on the same matrix, with the residual
    taken by scipy's ``A @ u``."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(8, dgfem.DgSpec(family, p), f, exact)
    factors, gstrf = [], dgfem._superlu.gstrf

    def kept(*args, **kwargs):
        factors.append(gstrf(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(dgfem._superlu, "gstrf", kept)
    sol = dgfem.dg_solve(system)
    A = _csc(system.matrix)
    lu = spla.splu(A, permc_spec="COLAMD", diag_pivot_thresh=0.0)
    u = lu.solve(system.rhs)
    res = (np.linalg.norm(A @ u - system.rhs)
           / max(np.linalg.norm(system.rhs), 1e-300))
    assert np.array_equal(sol.coeffs.ravel().view(np.int64), u.view(np.int64))
    assert sol.residual_norm == res and sol.factor_nnz == lu.nnz
    assert np.array_equal(dgfem._pivots(factors[0]).view(np.int64),
                          dgfem._pivots(lu).view(np.int64))


def test_pivot_read_copies_no_factor():
    """dg_solve reads diag(U) in place: on the CI smoke system (4096 dof)
    ``_pivots`` traces well below 1 MB, where scipy's ``SuperLU.U`` builds
    copies of L and U (about 37 MB traced).  The residual, taken with the
    CSC matvec, is bit for bit the CSR matvec's."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(8, dgfem.DgSpec("Q", 7), f, exact)
    lu = spla.splu(_csc(system.matrix), permc_spec="COLAMD",
                   diag_pivot_thresh=0.0)
    traced = []
    for read in (dgfem._pivots, lambda lu: lu.U.diagonal()):
        tracemalloc.start()
        try:
            read(lu)
            traced.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert traced[0] < 2 ** 20 < 10 * 2 ** 20 < traced[1], traced
    sol = dgfem.dg_solve(system)
    A = sp.csr_matrix(_csc(system.matrix))
    res = (np.linalg.norm(A @ sol.coeffs.ravel() - system.rhs)
           / max(np.linalg.norm(system.rhs), 1e-300))
    assert sol.residual_norm == res


def test_pivots_of_another_object_raise_before_any_read(monkeypatch):
    """``_pivots`` checks that it holds scipy's SuperLU object before it
    reads the object's memory: a wrapper, which forwards every attribute,
    raises a RuntimeError naming scipy's version."""
    system = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2),
                                lambda x, y: 0.0 * x, lambda x, y: 0.0 * y)
    lu = spla.splu(_csc(system.matrix), permc_spec="COLAMD",
                   diag_pivot_thresh=0.0)

    class Wrapper:
        def __getattr__(self, name):
            return getattr(lu, name)

    def no_read(address):
        raise AssertionError(f"read memory at {address:#x}")

    monkeypatch.setattr(dgfem._Factors, "from_address", no_read)
    for other in (Wrapper(), _csc(system.matrix), None):
        with pytest.raises(RuntimeError,
                           match=re.escape(f"scipy {scipy.__version__}")):
            dgfem._pivots(other)


def test_solve_builds_the_element_pairs_once(monkeypatch):
    """dg_solve builds SipOperator._pairs once, for both the symmetry check
    and the expansion, and drops it before the factorization: its blocks
    are not alive while SuperLU runs."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(3, dgfem.DgSpec("Q", 3), f, exact)
    built, alive_at_gstrf = [], []
    pairs, gstrf = dgfem.SipOperator._pairs, dgfem._superlu.gstrf

    def counted_pairs(operator):
        out = pairs(operator)
        built.append(weakref.ref(out[3]))
        return out

    def tracked_gstrf(*args, **kwargs):
        alive_at_gstrf.append([ref() is not None for ref in built])
        return gstrf(*args, **kwargs)

    monkeypatch.setattr(dgfem.SipOperator, "_pairs", counted_pairs)
    monkeypatch.setattr(dgfem._superlu, "gstrf", tracked_gstrf)
    sol = dgfem.dg_solve(system)
    assert len(built) == 1 and alive_at_gstrf == [[False]]
    assert sol.residual_norm < 1e-12


@pytest.mark.parametrize("family, p", [("Q", 2), ("Q", 10), ("P", 2),
                                       ("P", 12)])
def test_symmetry_scale_of_the_blocks_is_that_of_the_csc(family, p):
    """dg_solve scales its symmetry check by the largest |entry| of the
    distinct summed blocks, as max and -min: every stored CSC entry is an
    entry of one of them, so it is the CSC's largest |entry|, on the dg
    workload's mesh."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    system = dgfem.assemble_sip(8, dgfem.DgSpec(family, p), f, exact)
    pairs = system.matrix._pairs()
    blocks, A_csc = pairs[3], _csc(system.matrix, pairs)
    assert len(blocks) <= 33
    assert max(blocks.max(initial=0.0), -blocks.min(initial=0.0)) \
        == np.abs(blocks).max() == np.abs(A_csc.data).max()


def test_asymmetric_system_raises():
    g, _ = _linear()
    base = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2), lambda x, y: 0.0 * x, g)
    nm = len(base.modes)
    assert base.matrix.asymmetry() < 1e-12
    # one stored entry changed, then one entry outside the symmetric pattern
    for i, j in ((0, 1), (0, base.matrix.shape[0] - 1)):
        A = _csc(base.matrix).tolil()
        A[i, j] += 1.0
        base.matrix = _block_operator(A, nm)
        with pytest.raises(dgfem.IndefiniteSipError, match="not symmetric"):
            dgfem.dg_solve(base)
        assert base.matrix.asymmetry() == 1.0


def test_nan_entry_fails_the_symmetry_check():
    g, _ = _linear()
    system = dgfem.assemble_sip(2, dgfem.DgSpec("Q", 2),
                                lambda x, y: 0.0 * x, g)
    A = sp.csr_matrix(_csc(system.matrix))
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
    return dgfem.DgSystem(spec=dgfem.DgSpec("Q", 1), mesh=_row_mesh(3),
                          modes=[(0, 0)] * nm, matrix=operator,
                          rhs=np.ones(3 * nm))


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
    scale = np.abs(_csc(base.matrix).data).max()
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
    _assert_bitwise_equal(_csc(operator), _coo_reference(operator),
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
    expanded = _csc(base.matrix).toarray().reshape(3, nm, 3, nm)
    assert not np.array_equal(expanded, table_order)
    assert np.allclose(expanded, table_order, rtol=1e-12, atol=1e-6)


@pytest.mark.parametrize("descent", [True, False],
                         ids=["other_row_unsorted", "all_rows_sorted"])
def test_sorted_block_row_sums_as_the_coo_conversion(descent):
    # scipy's conversion sorts every row once one row has a descent, and
    # its introsort reorders equal keys of a row of more than 16 that was
    # already in order; it sorts no row when none has a descent.  Element
    # 0's row here is 20 terms on column 0, then 20 on column 1 (1 x 1
    # blocks: keys in order, each repeated), element 1's row has a descent
    # or none
    rng = np.random.default_rng(3)
    blocks = (rng.standard_normal((45, 1, 1))
              * np.logspace(-8, 8, 45)[:, None, None])
    terms = ([(0, 0, b) for b in range(20)]
             + [(0, 1, b) for b in range(20, 40)]
             + [(1, 1, 40), (1, 0, 41), (1, 1, 42), (1, 0, 43)])
    if not descent:
        terms[-3:] = [(1, 1, 41), (1, 1, 42), (1, 1, 43)]
    operator = dgfem.SipOperator(blocks=blocks, terms=np.array(terms),
                                 n_elements=2)
    _assert_bitwise_equal(_csc(operator), _coo_reference(operator),
                          descent)


@pytest.mark.parametrize("n", [0, -1])
def test_mesh_size_below_one_raises(n):
    spec = dgfem.DgSpec("Q", 2)
    zero = lambda x, y: 0.0 * x
    with pytest.raises(ValueError, match="need n >= 1"):
        dgfem.assemble_sip(n, spec, zero, zero)
    with pytest.raises(ValueError, match="need n >= 1"):
        dgfem.broken_interpolant(spec, n, zero)


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
    system.matrix = _block_operator(D @ _csc(system.matrix) @ D,
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
