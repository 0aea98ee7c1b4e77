"""Symmetric interior-penalty DG Poisson solver on uniform square meshes.

Each element carries a modal Legendre basis restricted to the Q_p or P_p index
set, so switching family is purely an index filter.  The bilinear form is the
standard SIP one: volume grad-grad, facet terms
-({grad u}.n [v] + {grad v}.n [u]) + sigma_F [u][v] with the penalty
sigma_F = gamma p^2 / h_F, and Dirichlet data enters through the boundary
facets.  The energy norm reported as dg_norm is
sqrt(broken_H1^2 + sum_F sigma_F ||[u - u_h]||_F^2).

The system is factorized once, by SuperLU with COLAMD ordering, and the
same LU proves the matrix positive definite: when its pivots stayed on the
diagonal, Sylvester's law of inertia reads the number of non-positive
eigenvalues from the signs of diag(U) (``_nonpositive_pivots``).  Otherwise
the verdict comes from the symmetric-mode factorization of ``_factor_spd``,
which pivots on the diagonal only.  A penalty too small for coercivity
raises ``IndefiniteSipError`` with that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import blas
from .errors import IndefiniteSipError
from .indexsets import BasisSpec, enumerate_modes, flat_positions
from .orthopoly import (apply_axes, element_grids, gauss_rule,
                        legendre_deriv_table, legendre_table)

# scipy's OpenBLAS loads with the imports above, after ``import hpexp`` set
# the copies loaded then: one thread for it too (see ``hpexp.blas``)
blas.set_threads(1)

__all__ = [
    "DgSpec",
    "BrokenSolution",
    "DgSystem",
    "IndefiniteSipError",
    "assemble_sip",
    "dg_solve",
    "dg_errors",
    "broken_interpolant",
]


@dataclass(frozen=True)
class DgSpec:
    """Broken-space selector: family P | Q, degree p, penalty factor gamma."""

    family: str
    p: int
    gamma: float = 10.0

    def __post_init__(self):
        if self.family not in ("P", "Q"):
            raise ValueError("DG families are P and Q")
        if self.p < 1:
            raise ValueError("need p >= 1")
        if self.gamma <= 0:
            raise ValueError("penalty factor must be positive")


@dataclass
class BrokenSolution:
    """Per-element Legendre coefficients on the family index set, with the
    solve's relative residual and stored LU entries (an interpolant, which
    solves nothing, has NaN and 0)."""

    spec: DgSpec
    n: int
    h: float
    lower: np.ndarray           # (ne, 2) element lower corners
    modes: list
    coeffs: np.ndarray          # (ne, nmodes)
    residual_norm: float = float("nan")
    factor_nnz: int = 0


@dataclass
class DgSystem:
    spec: DgSpec
    n: int
    h: float
    lower: np.ndarray
    modes: list
    matrix: sp.csr_matrix
    rhs: np.ndarray


def _k1_legendre(p: int) -> np.ndarray:
    """Exact 1D stiffness int L_i' L_j' = min(i,j)(min(i,j)+1) for i+j even."""
    i, j = np.indices((p + 1, p + 1))
    m = np.minimum(i, j)
    return np.where((i + j) % 2 == 0, m * (m + 1), 0).astype(float)


def _interval(domain) -> tuple[float, float]:
    """The (lo, hi) of the square's axes: one pair of reals, checked to run
    upward."""
    dom = np.asarray(domain)
    if dom.shape != (2,) or dom.dtype.kind not in "iuf":
        raise ValueError(f"domain {domain} must be one (lo, hi) pair of reals")
    lo, hi = float(dom[0]), float(dom[1])
    if not lo < hi:
        raise ValueError(f"domain {domain} must have lo < hi")
    return lo, hi


def _lower_corners(n: int, lo: float, h: float) -> np.ndarray:
    """(n*n, 2) element lower corners; element (i, j) is row i * n + j."""
    xs = lo + h * np.arange(n)
    return np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)


def _on_elements(f: Callable, lower: np.ndarray, a: float,
                 nodes: np.ndarray) -> np.ndarray:
    """f on the tensor grid of every element: (ne, q, q)."""
    return np.broadcast_to(
        np.asarray(f(*element_grids(lower, a, [nodes, nodes])), dtype=float),
        (lower.shape[0], nodes.size, nodes.size))


def _volume_stiffness(modes, p: int) -> np.ndarray:
    M1 = np.diag(2.0 / (2.0 * np.arange(p + 1) + 1.0))
    K1 = _k1_legendre(p)
    full = np.kron(K1, M1) + np.kron(M1, K1)
    flat = flat_positions(modes, p)
    return full[np.ix_(flat, flat)]


def _trace_tables(modes, p: int, nodes: np.ndarray):
    """Per (axis, side): trace values and reference normal-slope of every mode.

    Returns val[axis][side][mode, q] and der[axis][side][mode, q] with the
    derivative taken along the axis (outward sign applied by the caller).
    """
    L = legendre_table(p, nodes)
    ends = np.array([-1.0, 1.0])
    M = np.array(modes)       # M[:, axis]: index along the facet normal
    return tuple([[tab[M[:, axis], side][:, None] * L[M[:, 1 - axis]]
                   for side in (0, 1)] for axis in (0, 1)]
                 for tab in (legendre_table(p, ends),
                             legendre_deriv_table(p, 1, ends)))


def assemble_sip(mesh_n: int, spec: DgSpec, f: Callable, g: Callable,
                 domain=(0.0, 1.0)) -> DgSystem:
    """Assemble the SIP system on an n x n uniform square mesh."""
    n, p = mesh_n, spec.p
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi = _interval(domain)
    h = (hi - lo) / n
    a = h / 2.0
    modes = enumerate_modes(BasisSpec(2, p, spec.family))
    nm = len(modes)
    ne = n * n
    lower = _lower_corners(n, lo, h)

    K_vol = _volume_stiffness(modes, p)

    frule = gauss_rule(p + 2)
    tval, tder = _trace_tables(modes, p, frule.nodes)
    sigma = spec.gamma * max(p, 1) ** 2 / h
    wfac = frule.weights * a                   # facet jacobian

    # the distinct blocks: 0 volume; 1 + 4 axis + k facet pair, k = 2 row
    # side + column side (minus 0, plus 1, the normal running from minus to
    # plus); 9 + 2 axis + side boundary facet
    blocks = [K_vol]
    for axis in (0, 1):
        sides = [(tval[axis][1], tder[axis][1] / a, 1.0),
                 (tval[axis][0], tder[axis][0] / a, -1.0)]
        for (Ta, Da, sa), (Tb, Db, sb) in product(sides, repeat=2):
            blocks.append(sigma * sa * sb * (Ta * wfac) @ Tb.T
                          - 0.5 * sb * (Da * wfac) @ Tb.T
                          - 0.5 * sa * (Ta * wfac) @ Db.T)
    E = np.arange(ne).reshape(n, n)        # element (i, j) at [i, j]
    rhs = np.zeros((ne, nm))
    for axis in (0, 1):
        for side, fixed in ((0, lo), (1, hi)):
            T = tval[axis][side]
            D = tder[axis][side] * ((2 * side - 1.0) / a)    # outward derivative
            blocks.append(sigma * (T * wfac) @ T.T - (D * wfac) @ T.T
                          - (T * wfac) @ D.T)
            # a batch of one matrix-vector product per facet (a single GEMM
            # over the facets would round differently)
            elems = np.take(E, -side, axis)
            tang = lower[elems, 1 - axis][:, None] + a * (frule.nodes + 1.0)
            pts = [tang, tang]
            pts[axis] = np.full_like(tang, fixed)
            gv = np.broadcast_to(np.asarray(g(*pts), dtype=float), tang.shape)
            rhs[elems] += np.matmul(sigma * T - D, (wfac * gv)[..., None])[..., 0]
    rhs = rhs.ravel()

    # (row element, column element, block) in COO order: the volume blocks;
    # per element in row-major order the 4 pair blocks of its +x, then of its
    # +y facet; the boundary facets per axis, low and high side interleaved.
    # That order fixes the order in which each entry's terms are summed.
    inner = np.stack([E // n < n - 1, E % n < n - 1], axis=-1)  # (i, j, axis)
    ends = np.stack([np.stack([E, E], axis=-1), np.stack([E + n, E + 1], -1)],
                    axis=-1)[inner]                          # (facet, minus/plus)
    axis_of = np.nonzero(inner)[2]
    bnd = [np.stack([np.take(E, 0, axis), np.take(E, -1, axis)], -1).ravel()
           for axis in (0, 1)]
    ea = np.concatenate([E.ravel(), ends[:, [0, 0, 1, 1]].ravel()] + bnd)
    eb = np.concatenate([E.ravel(), ends[:, [0, 1, 0, 1]].ravel()] + bnd)
    bid = np.concatenate([np.zeros(ne, dtype=np.int64),
                          (1 + 4 * axis_of[:, None] + np.arange(4)).ravel()]
                         + [np.tile([9 + 2 * axis, 10 + 2 * axis], n)
                            for axis in (0, 1)])
    rows = (ea[:, None] * nm + np.repeat(np.arange(nm), nm)).ravel()
    cols = (eb[:, None] * nm + np.tile(np.arange(nm), nm)).ravel()
    data = np.stack(blocks)[bid].ravel()

    # volume load
    vrule = gauss_rule(p + 10)
    LW = legendre_table(p, vrule.nodes) * vrule.weights
    proj = apply_axes(_on_elements(f, lower, a, vrule.nodes), [LW, LW]) * a * a
    rhs += proj.reshape(ne, -1)[:, flat_positions(modes, p)].ravel()

    A = sp.coo_matrix((data, (rows, cols)), shape=(ne * nm, ne * nm)).tocsr()
    return DgSystem(spec=spec, n=n, h=h, lower=lower, modes=modes,
                    matrix=A, rhs=rhs)


def _asymmetry(A: sp.csr_matrix, A_csc: sp.csc_matrix) -> float:
    """max |A - A^T|, given A in CSR and in CSC form: the CSC arrays of A are
    the CSR arrays of A^T.  The SIP pattern is symmetric, so the stored
    entries of both are compared directly.  The temporaries of the sparse
    difference A - A^T fragment the heap the LU is then built in: they
    raised the dg workload's peak RSS from 419 to 463 MB (2 cores, scipy
    1.17)."""
    if (np.array_equal(A.indptr, A_csc.indptr)
            and np.array_equal(A.indices, A_csc.indices)):
        return float(np.abs(A.data - A_csc.data).max(initial=0.0))
    return float(abs(A - A_csc.T).max())


def _nonpositive_pivots(lu) -> Optional[int]:
    """Inertia certificate of a SuperLU factorization of a symmetric A.

    When the row and column permutations agree, every pivot was taken on the
    diagonal and P A P^T = L U with unit lower L.  For symmetric A that makes
    U = D L^T, so by Sylvester's law of inertia the number of non-positive
    entries of diag(U) is the number of non-positive eigenvalues of A; that
    number is returned.  ``None`` when a row pivot left the diagonal: then
    the factorization certifies nothing.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() <= 0.0))


def _factor_spd(A: sp.csc_matrix):
    """Symmetric-mode sparse LU of the SIP matrix A with an inertia
    certificate.

    Minimum-degree ordering on A^T + A and diagonal pivots only, so
    ``_nonpositive_pivots`` counts the non-positive eigenvalues of A.
    Raises ``IndefiniteSipError`` unless that count is zero.
    """
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise IndefiniteSipError(
            f"SIP matrix singular in the symmetric-mode factorization: "
            f"{exc}") from exc
    n_nonpos = _nonpositive_pivots(lu)
    if n_nonpos is None:
        raise IndefiniteSipError(
            "symmetric-mode factorization of the SIP matrix left the "
            "diagonal (row and column permutations differ); no inertia "
            "certificate")
    if n_nonpos:
        raise IndefiniteSipError(
            f"SIP matrix not positive definite by the symmetric-mode "
            f"factorization: {n_nonpos} non-positive pivot(s) of "
            f"{A.shape[0]}")
    return lu


def dg_solve(system: DgSystem) -> BrokenSolution:
    """One sparse LU solve whose pivots prove the SIP matrix definite.

    SuperLU factorizes A with COLAMD ordering and partial pivoting, as
    scipy's default sparse direct solve does.  When every pivot stayed on the
    diagonal, Sylvester's law of inertia counts the non-positive eigenvalues
    of the symmetric A from diag(U) (``_nonpositive_pivots``).  When a row
    pivot left the diagonal, the verdict comes from the symmetric-mode
    factorization of ``_factor_spd`` instead, and the solution still from
    the COLAMD LU.  An asymmetric, indefinite or singular A (gamma too
    small), or a relative residual that is not below 1e-8, raises
    ``IndefiniteSipError``.
    """
    A = system.matrix
    # one CSC copy serves the symmetry check and the LU; it is released
    # before the pivots are read (held, it raised the dg workload's peak RSS
    # from 421 to 465 MB)
    A_csc = A.tocsc()
    asym = _asymmetry(A, A_csc)
    if not asym <= 1e-10 * max(np.abs(A.data).max(initial=0.0), 1.0):
        raise IndefiniteSipError(f"system not symmetric: {asym:.2e}")
    try:
        lu = spla.splu(A_csc, permc_spec="COLAMD")
    except RuntimeError as exc:
        raise IndefiniteSipError(f"SIP matrix singular: {exc}") from exc
    del A_csc
    n_nonpos = _nonpositive_pivots(lu)
    if n_nonpos is None:
        _factor_spd(A.tocsc())
    elif n_nonpos:
        raise IndefiniteSipError(
            f"SIP matrix not positive definite: {n_nonpos} non-positive "
            f"pivot(s) of {A.shape[0]}")
    u = lu.solve(system.rhs)
    res = np.linalg.norm(A @ u - system.rhs) / max(np.linalg.norm(system.rhs), 1e-300)
    if not res < 1e-8:
        raise IndefiniteSipError(f"direct solve residual too large: {res:.2e}")
    nm = len(system.modes)
    return BrokenSolution(spec=system.spec, n=system.n, h=system.h,
                          lower=system.lower, modes=system.modes,
                          coeffs=u.reshape(-1, nm), residual_norm=float(res),
                          factor_nnz=int(lu.nnz))


def broken_interpolant(spec: DgSpec, n: int, f: Callable,
                       domain=(0.0, 1.0)) -> BrokenSolution:
    """Elementwise L2 projection of f onto the broken space (test oracle)."""
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi = _interval(domain)
    h = (hi - lo) / n
    a = h / 2.0
    p = spec.p
    modes = enumerate_modes(BasisSpec(2, p, spec.family))
    lower = _lower_corners(n, lo, h)
    rule = gauss_rule(p + 10)
    L = legendre_table(p, rule.nodes)
    proj = L * rule.weights * ((2 * np.arange(p + 1) + 1.0) / 2.0)[:, None]
    C = apply_axes(_on_elements(f, lower, a, rule.nodes), [proj, proj])
    coeffs = C.reshape(n * n, -1)[:, flat_positions(modes, p)]
    return BrokenSolution(spec=spec, n=n, h=h, lower=lower, modes=modes,
                          coeffs=coeffs)


def dg_errors(sol: BrokenSolution, exact: Callable,
              exact_gradient: Callable) -> dict:
    """L2, broken-H1 and SIP-energy errors against a smooth exact solution."""
    p = sol.spec.p
    n, h, a = sol.n, sol.h, sol.h / 2.0
    C = np.zeros((n * n, (p + 1) ** 2))
    C[:, flat_positions(sol.modes, p)] = sol.coeffs
    C = C.reshape(n * n, p + 1, p + 1)

    rule = gauss_rule(2 * p + 4)
    L = legendre_table(p, rule.nodes).T
    dL = legendre_deriv_table(p, 1, rule.nodes).T
    w2 = np.outer(rule.weights, rule.weights) * a * a
    uex = _on_elements(exact, sol.lower, a, rule.nodes)
    gx, gy = exact_gradient(*element_grids(sol.lower, a, [rule.nodes] * 2))
    l2_sq = np.sum(w2 * (uex - apply_axes(C, [L, L])) ** 2)
    h1_sq = np.sum(w2 * ((gx - apply_axes(C, [dL, L]) / a) ** 2
                         + (gy - apply_axes(C, [L, dL]) / a) ** 2))

    # facet jumps of (u - u_h); u is continuous so only u_h jumps interiorly.
    # trace[axis, side]: u_h on the low (0) or high (1) facet normal to axis,
    # for element (i, j) at [i, j]
    frule = gauss_rule(p + 2)
    Lf = legendre_table(p, frule.nodes).T
    Lend = legendre_table(p, np.array([-1.0, 1.0])).T      # (2, p+1)
    sigma = sol.spec.gamma * max(p, 1) ** 2 / h
    wf = frule.weights * a
    trace = {}
    for axis in (0, 1):
        for side in (0, 1):
            normal, along = [None, None], [Lf, Lf]
            normal[axis], along[axis] = Lend[side:side + 1], None
            trace[axis, side] = apply_axes(apply_axes(C, normal),
                                           along).reshape(n, n, -1)
    jump_sq = (np.sum(wf * (trace[0, 1][:-1] - trace[0, 0][1:]) ** 2)
               + np.sum(wf * (trace[1, 1][:, :-1] - trace[1, 0][:, 1:]) ** 2))

    lo, hi = sol.lower.min(), sol.lower.max() + h
    lower = sol.lower.reshape(n, n, 2)
    for axis in (0, 1):
        for side, fixed in ((0, lo), (1, hi)):
            facet = (slice(None),) * axis + (-side,)    # the boundary row
            tang = lower[facet][:, 1 - axis, None] + a * (frule.nodes + 1.0)
            pts = [tang, tang]
            pts[axis] = np.full_like(tang, fixed)
            gv = np.asarray(exact(*pts), dtype=float)
            jump_sq += np.sum(wf * (gv - trace[axis, side][facet]) ** 2)

    return {"l2": float(np.sqrt(l2_sq)),
            "broken_h1": float(np.sqrt(h1_sq)),
            "dg_norm": float(np.sqrt(h1_sq + sigma * jump_sq))}
