"""Symmetric interior-penalty DG Poisson solver on uniform square meshes.

Each element carries a modal Legendre basis restricted to the Q_p or P_p index
set, so switching family is purely an index filter.  The bilinear form is the
standard SIP one: volume grad-grad, facet terms
-({grad u}.n [v] + {grad v}.n [u]) + sigma_F [u][v] with the penalty
sigma_F = gamma p^2 / h_F, and Dirichlet data enters through the boundary
facets.  The energy norm reported as dg_norm is
sqrt(broken_H1^2 + sum_F sigma_F ||[u - u_h]||_F^2).

``assemble_sip`` returns the matrix in element-block form, a
``SipOperator``: the 14 distinct element blocks and the table that places
them, expanded only inside ``dg_solve``, straight to the CSC arrays SuperLU
reads.  Where several terms meet (the diagonal blocks), the expansion adds
them in the order scipy's COO-to-CSR conversion did, bit for bit, because
the dg workload's fitted P:Q ratio moves with that order (``SipOperator``);
the condensed solver of ROADMAP item 2 deletes it.  The system is factorized
once, by SuperLU with COLAMD ordering and diagonal pivots, and the same LU
proves the matrix positive definite: Sylvester's law of inertia reads the
number of non-positive eigenvalues from the signs of diag(U), and a zero
diagonal pivot, which no positive definite matrix has, shows as a row
permutation that left the diagonal (``dg_solve``).  A penalty too small
for coercivity raises ``IndefiniteSipError`` with that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

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
    "SipOperator",
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
        # the chained comparison is False for NaN too
        if not 0 < self.gamma < np.inf:
            raise ValueError("penalty factor must be finite and positive")


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


@dataclass(frozen=True)
class SipOperator:
    """The SIP matrix in element-block form.

    ``blocks`` holds the distinct nm x nm element blocks, and each row of
    ``terms`` (row element, column element, block id) adds one of them at
    that block position.  The rows run in the COO order of the assembly.
    ``shape`` and ``nnz`` are those of the expansion ``tocsc`` builds:
    every element pair that ``terms`` names stores its full nm x nm block.

    An entry that several terms reach (the diagonal blocks: the volume and
    four facet terms) is their sum in the order scipy's COO-to-CSR
    conversion adds them: each row sorted by column with the unstable
    ``std::sort``, then the neighbours of equal column added left to right.
    That order is neither the COO order nor one order per block, and the
    dg workload's fitted P:Q ratio moves with the order of these sums (its
    top-degree errors are round-off), so the expansion keeps scipy's order
    bit for bit until the DG solve leaves SuperLU (ROADMAP item 2), which
    deletes it.
    """

    blocks: np.ndarray          # (nb, nm, nm)
    terms: np.ndarray           # (nt, 3): row element, column element, block
    n_elements: int

    @property
    def shape(self) -> tuple[int, int]:
        size = self.n_elements * self.blocks.shape[1]
        return size, size

    @property
    def nnz(self) -> int:
        pairs = self.terms[:, 0] * self.n_elements + self.terms[:, 1]
        return np.unique(pairs).size * self.blocks.shape[1] ** 2

    def _pairs(self):
        """The stored element pairs in CSC order (column element, then row
        element) as (rows, cols, value ids, values): pair k holds the
        nm x nm block ``values[ids[k]]``.

        A pair one term reaches holds that term's block.  Where several
        terms meet, the order in which scipy adds them depends only on the
        block-row's key pattern, the rank order of its terms' column
        elements: std::sort compares keys and nothing else.  One template
        row per pattern, with its keys and their positions as data, goes
        through scipy's own sort, in one matrix, so that it sorts exactly
        when a conversion of the whole operator would.  The sum then
        depends on the pattern and the block-row's block ids alone, so each
        distinct one is added once (at most 9 on a SIP mesh: interior,
        edges and corners)."""
        nm, ne = self.blocks.shape[1], self.n_elements
        row_elem, col_elem, bid = self.terms.T
        by_row = np.argsort(row_elem, kind="stable")
        counts = np.bincount(row_elem, minlength=ne)
        ends = np.cumsum(counts)
        block_rows, patterns = [], {}
        for start, end in zip(ends - counts, ends):
            t = by_row[start:end]
            cols, rank = np.unique(col_elem[t], return_inverse=True)
            patterns.setdefault(rank.tobytes(), rank)
            block_rows.append((cols, rank, bid[t]))
        local = np.arange(nm)
        keys = [(rank[:, None] * nm + local).ravel()
                for rank in patterns.values()]
        indptr = np.cumsum([0] + [k.size for k in keys])
        keys = np.concatenate(keys)
        template = sp.csr_matrix(
            (np.arange(keys.size, dtype=float), keys, indptr),
            shape=(len(patterns), keys.max() + 1))
        template.sort_indices()
        # per pattern and column rank: the summands' slots, (terms, nm)
        orders = {}
        for (pattern, rank), start, stop in zip(
                patterns.items(), indptr[:-1], indptr[1:]):
            slot = (template.data[start:stop].astype(np.int64) - start) // nm
            counts = np.bincount(rank)
            orders[pattern] = [run.reshape(nm, k).T for run, k in zip(
                np.split(slot, np.cumsum(counts * nm)[:-1]), counts)]
        values, row_ids = list(self.blocks), {}
        rows, cols_of, ids = [], [], []
        for e, (cols, rank, bids) in enumerate(block_rows):
            signature = (rank.tobytes(), bids.tobytes())
            if signature not in row_ids:
                row_ids[signature] = []
                for order in orders[signature[0]]:
                    if order.shape[0] == 1:
                        row_ids[signature].append(bids[order[0, 0]])
                        continue
                    summands = self.blocks[bids[order][:, None, :],
                                           local[:, None], local]
                    total = summands[0]
                    for summand in summands[1:]:
                        total += summand
                    row_ids[signature].append(len(values))
                    values.append(total)
            rows.append(np.full(cols.size, e))
            cols_of.append(cols)
            ids.append(row_ids[signature])
        rows, cols = np.concatenate(rows), np.concatenate(cols_of)
        ids = np.concatenate(ids).astype(np.int64)
        csc = np.lexsort((rows, cols))
        return rows[csc], cols[csc], ids[csc], np.stack(values)

    def tocsc(self, pairs=None) -> sp.csc_matrix:
        """The CSC matrix SuperLU factors, written block by block, bit for
        bit the arrays of scipy's COO-to-CSR conversion of every term
        followed by its CSR-to-CSC one (int32 indices where those have
        them).  Column element f stores its k pairs as one (nm, k, nm)
        run: column, row element, row.  ``pairs`` is ``_pairs()``, built
        here if not given."""
        nm, ne = self.blocks.shape[1], self.n_elements
        rows, cols, ids, values = self._pairs() if pairs is None else pairs
        size, nnz = ne * nm, rows.size * nm * nm
        # scipy's index dtype rule for a conversion of this size
        index = np.int32 if max(size, nnz) <= np.iinfo(np.int32).max \
            else np.int64
        per_col = np.bincount(cols, minlength=ne)
        indptr = np.zeros(size + 1, dtype=index)
        indptr[1:] = np.cumsum(np.repeat(per_col * nm, nm))
        indices = np.empty(nnz, dtype=index)
        data = np.empty(nnz)
        local = np.arange(nm)
        for f, first in enumerate(np.cumsum(per_col) - per_col):
            k = per_col[f]
            pairs = slice(first, first + k)
            run = slice(indptr[f * nm], indptr[(f + 1) * nm])
            data[run].reshape(nm, k, nm)[...] = \
                values[ids[pairs]].transpose(2, 0, 1)
            indices[run].reshape(nm, k * nm)[...] = \
                (rows[pairs, None] * nm + local).ravel()
        return sp.csc_matrix((data, indices, indptr), shape=self.shape)

    def asymmetry(self, pairs=None) -> float:
        """max |A - A^T| of the expansion A, pair by pair: each stored
        pair's block against the transpose of its mirror pair's, or against
        zero where the mirror stores nothing.  The difference depends on
        the two value ids alone, so each combination is taken once; a NaN
        entry makes the result NaN, wherever it comes in the order.
        ``pairs`` is ``_pairs()``, built here if not given."""
        rows, cols, ids, values = self._pairs() if pairs is None else pairs
        key = cols * self.n_elements + rows        # ascending: CSC order
        mirror = rows * self.n_elements + cols
        at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        partner = np.where(key[at] == mirror, ids[at], -1)
        worst = [np.abs(values[a] - (values[b].T if b >= 0 else 0.0)).max()
                 for a, b in np.unique(np.stack([ids, partner], -1), axis=0)]
        return float(np.max(worst, initial=0.0))


@dataclass
class DgSystem:
    """An assembled SIP system: the matrix as a ``SipOperator``, and the
    load vector in element-major order."""

    spec: DgSpec
    n: int
    h: float
    lower: np.ndarray
    modes: list
    matrix: SipOperator
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

    # volume load
    vrule = gauss_rule(p + 10)
    LW = legendre_table(p, vrule.nodes) * vrule.weights
    proj = apply_axes(_on_elements(f, lower, a, vrule.nodes), [LW, LW]) * a * a
    rhs += proj.reshape(ne, -1)[:, flat_positions(modes, p)].ravel()

    A = SipOperator(blocks=np.stack(blocks),
                    terms=np.stack([ea, eb, bid], axis=-1), n_elements=ne)
    return DgSystem(spec=spec, n=n, h=h, lower=lower, modes=modes,
                    matrix=A, rhs=rhs)


def dg_solve(system: DgSystem) -> BrokenSolution:
    """One sparse LU solve whose pivots prove the SIP matrix definite.

    SuperLU factorizes A once, with COLAMD ordering and diagonal pivots: at
    threshold 0 it takes the diagonal entry whenever that is non-zero, so the
    row and column permutations differ only after an exactly zero diagonal
    pivot.  Every earlier pivot was diagonal, so that zero is a diagonal entry
    of a Schur complement of A, which no positive definite matrix has.
    Otherwise P A P^T = L U with unit lower L; for symmetric A that makes
    U = D L^T, so by Sylvester's law of inertia the number of non-positive
    entries of diag(U) is the number of non-positive eigenvalues of A.  For
    positive definite A elimination without pivoting is backward stable, and
    the same LU gives the solution.  An asymmetric, indefinite or singular A
    (gamma too small), or a relative residual that is not below 1e-8, raises
    ``IndefiniteSipError``, in that order of checks.

    The element pairs (``SipOperator._pairs``) are built once, for both
    the symmetry check on the element blocks (``SipOperator.asymmetry``)
    and the one expansion of ``system.matrix`` to the CSC arrays SuperLU
    factors (``SipOperator.tocsc``), whose sums of terms are bit for bit
    those of scipy's COO-to-CSR conversion; they are dropped before the
    factorization.  The CSC is dropped after the solve, whose residual is
    its matvec.  Only then is diag(U) read, because scipy's ``SuperLU.U``
    builds and keeps copies of both L and U, nearly as large as the LU
    itself.
    """
    pairs = system.matrix._pairs()
    A_csc = system.matrix.tocsc(pairs)
    asym = system.matrix.asymmetry(pairs)
    del pairs
    if not asym <= 1e-10 * max(np.abs(A_csc.data).max(initial=0.0), 1.0):
        raise IndefiniteSipError(f"system not symmetric: {asym:.2e}")
    size = A_csc.shape[0]
    try:
        lu = spla.splu(A_csc, permc_spec="COLAMD", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise IndefiniteSipError(f"SIP matrix singular: {exc}") from exc
    off_diagonal = lu.perm_r != lu.perm_c
    if off_diagonal.any():
        # the first off-diagonal step is the earliest column whose own row
        # was not its pivot
        step = int(lu.perm_c[off_diagonal].min())
        raise IndefiniteSipError(
            f"SIP matrix not positive definite: zero diagonal pivot at "
            f"elimination step {step} of {size}")
    u = lu.solve(system.rhs)
    res = (np.linalg.norm(A_csc @ u - system.rhs)
           / max(np.linalg.norm(system.rhs), 1e-300))
    del A_csc
    n_nonpos = int(np.count_nonzero(lu.U.diagonal() <= 0.0))
    if n_nonpos:
        raise IndefiniteSipError(
            f"SIP matrix not positive definite: {n_nonpos} non-positive "
            f"pivot(s) of {size}")
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
