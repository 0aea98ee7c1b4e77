"""Symmetric interior-penalty DG Poisson solver on a ``mesh.Mesh``.

FEM and DG share the mesh of ``hpexp.mesh``, whose cells' lattice positions
name its facets (``_facets``); a DG run imports no FEM solver.  Each element
carries a modal Legendre basis restricted to the Q_p or P_p index set, so
switching family is purely an index filter.
The bilinear form is the standard SIP one: volume grad-grad, facet terms
-({grad u}.n [v] + {grad v}.n [u]) + sigma_F [u][v] with the penalty
sigma_F = gamma p^2 / h_F, and Dirichlet data enters through the boundary
facets.  The energy norm reported as dg_norm is
sqrt(broken_H1^2 + sum_F sigma_F ||[u - u_h]||_F^2); the matrix and the norm
take the facet rule and sigma_F from one helper, ``_facet_rule``.

The element kernels are FEM's, from ``orthopoly``.  ``grid_values``
evaluates the volume load, the broken interpolant, the errors and the
boundary data; a boundary facet is evaluated from the corner that
``mesh._coords`` gives its lattice vertex, with node -1 on the normal axis,
as ``fem`` reads a boundary entity.  The volume block is ``kron_laplacian``
of the exact 1D Legendre mass and stiffness, and the broken-H1 error is
``gradient_error_sq``.  Facet traces come from one kernel, ``_traces``: the
norm applies it to the solution's coefficients, the assembly to one-hot
coefficients of its modes, once with the end values and once with the end
slopes.

``assemble_sip`` returns the matrix in element-block form, a
``SipOperator``: the 13 distinct element blocks (volume, 8 facet pairs, 4
boundary facets) and the table that places them, expanded only inside
``dg_solve``, straight to the CSC arrays SuperLU reads.  Where several
terms meet (the diagonal blocks), the expansion adds them in the order
scipy's COO-to-CSR conversion did, bit for bit, because the dg workload's
fitted P:Q ratio moves with that order: one scipy sort per distinct
block-row, then the runs of equal keys added left to right
(``SipOperator._pairs``); the condensed solver of ROADMAP item 2 deletes
it.  The system is factorized once, by SuperLU with COLAMD ordering and
diagonal pivots, called as ``scipy.sparse.linalg.splu`` calls it, and the
same LU proves the matrix positive definite:
Sylvester's law of inertia reads the number of non-positive eigenvalues
from the signs of diag(U), and a zero diagonal pivot, which no positive
definite matrix has, shows as a row permutation that left the diagonal
(``dg_solve``).  The pivots are read in place, where SuperLU stores them,
in the diagonal blocks of L's supernodes (``_pivots``): scipy's
``SuperLU.U`` would build copies of both L and U for them, as large as the
LU itself.  The checks run in this order: symmetry, the factorization, a
zero diagonal pivot, the non-positive pivots, and then, once the matrix is
proven definite, the solve and its residual.  A penalty too small for
coercivity raises ``IndefiniteSipError`` with the count of non-positive
pivots.

Of scipy, DG needs two compiled modules: SuperLU (``_superlu``) and the
sparse kernels (``_sparsetools``: the row sort and the CSC matvec).  Both are
loaded from their files in scipy's package directory, without the Python
layers of ``scipy.sparse`` around them (about 140 modules and 29 MB), and
registered under their own names, so that a later ``import scipy.sparse``
reuses them (``_compiled``).  A file that is not where scipy 1.17.1 keeps it
raises ``ImportError``; a ``SuperLU`` object laid out otherwise,
``RuntimeError`` (``_pivots``).
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from itertools import product
from types import ModuleType
from typing import Callable

import numpy as np
import scipy

from . import blas
from .errors import IndefiniteSipError
from .indexsets import BasisSpec, _integer, enumerate_modes, flat_positions
from .mesh import Mesh, _at, _coords, mesh_uniform
from .orthopoly import (apply_axes, element_grids, gauss_rule,
                        gradient_error_sq, grid_values, kron_laplacian,
                        legendre_deriv_table, legendre_table)


def _compiled(name: str, root: str) -> ModuleType:
    """scipy's compiled module ``name`` (``scipy.<path>``), loaded from its
    file under ``root``, scipy's package directory, and registered in
    ``sys.modules`` under ``name``; a module already registered there is
    returned as it is, so that scipy and DG share one ``SuperLU`` type.
    Where no file with an extension suffix exists, raises ``ImportError``
    naming the file."""
    if name in sys.modules:
        return sys.modules[name]
    base = os.path.join(root, *name.split(".")[1:])
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"hpexp.dgfem loads scipy's compiled {name} from "
                          f"its file, and none of {', '.join(paths)} exists",
                          name=name, path=base)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_SCIPY = os.path.dirname(scipy.__file__)
_superlu = _compiled("scipy.sparse.linalg._dsolve._superlu", _SCIPY)
_sparsetools = _compiled("scipy.sparse._sparsetools", _SCIPY)

# scipy's OpenBLAS, which ``_superlu`` links, loads with it, after ``import
# hpexp`` set the copies loaded then: one thread for it too (see
# ``hpexp.blas``)
blas.set_threads(1)

# the options ``splu(A, permc_spec="COLAMD", diag_pivot_thresh=0.0)`` passes
_LU_OPTIONS = {"DiagPivotThresh": 0.0, "ColPerm": "COLAMD",
               "PanelSize": None, "Relax": None}

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
        _integer(p=self.p)
        if self.p < 1:
            raise ValueError("need p >= 1")
        # a real number, not a string or a boolean; the chained comparison
        # is False for NaN too
        gamma = np.asarray(self.gamma)
        if (gamma.shape or gamma.dtype.kind not in "iuf"
                or not 0 < gamma < np.inf):
            raise ValueError(f"penalty factor gamma = {self.gamma!r} must be "
                             f"a finite positive real")


@dataclass
class BrokenSolution:
    """Per-element Legendre coefficients on the family index set, with the
    solve's relative residual and stored LU entries (an interpolant, which
    solves nothing, has NaN and 0)."""

    spec: DgSpec
    mesh: Mesh
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
    ``shape`` and ``nnz`` are those of the expansion ``_tocsc`` builds:
    every element pair that ``terms`` names stores its full nm x nm block.

    An entry that several terms reach (the diagonal blocks: the volume and
    four facet terms) is their sum in the order scipy's COO-to-CSR
    conversion adds them: every row sorted by column with the unstable
    ``std::sort`` (or none, when no row has a descent), then the neighbours
    of equal column added left to right.  That order is neither the COO
    order nor one order per block, and the dg workload's fitted P:Q ratio
    moves with the order of these sums (its top-degree errors are
    round-off), so the expansion keeps scipy's order bit for bit until the
    DG solve leaves SuperLU (ROADMAP item 2), which deletes it.
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

        One pass over the block-rows.  A block-row's sums depend only on
        its signature, the rank order of its terms' column elements and
        their block ids: std::sort compares keys and nothing else, and
        every row of a block-row has the same keys.  At the first
        block-row of each signature its keys (int32), with their positions
        (int64) as data, go once through scipy's compiled
        ``csr_sort_indices``, which ``csr_matrix.sort_indices`` calls (at
        most 9 signatures on a SIP mesh: interior, edges and corners),
        sorted exactly when a conversion of the whole operator sorts; the
        runs of equal keys are then added left to right, as
        ``csr_sum_duplicates`` adds them, for all nm rows at once, and each
        column rank of the signature gets its own value id."""
        nm, ne = self.blocks.shape[1], self.n_elements
        row_elem, col_elem, bid = self.terms.T
        by_row = np.argsort(row_elem, kind="stable")
        counts = np.bincount(row_elem, minlength=ne)
        ends = np.cumsum(counts)
        # scipy sorts every row, or none when no row has a descent (a
        # term's first key below the previous term's last)
        first_key = col_elem[by_row] * nm
        descent = np.any((np.diff(row_elem[by_row]) == 0)
                         & (first_key[1:] < first_key[:-1] + nm - 1))
        local = np.arange(nm)
        values, row_ids = [], {}
        rows, cols_of, ids = [], [], []
        for e, (start, end) in enumerate(zip(ends - counts, ends)):
            t = by_row[start:end]
            cols, rank = np.unique(col_elem[t], return_inverse=True)
            signature = (rank.tobytes(), bid[t].tobytes())
            if signature not in row_ids:
                keys = (rank[:, None] * nm + local).ravel().astype(np.int32)
                positions = np.arange(keys.size)
                if descent:
                    _sparsetools.csr_sort_indices(
                        1, np.array([0, keys.size], dtype=np.int32), keys,
                        positions)
                # sorted position q holds key (column rank r, column j) of
                # the term with block block[q]; the run of key (r, j), one
                # entry per term of rank r, adds column j of those blocks
                block, column = bid[t][positions // nm], keys % nm
                length = np.repeat(np.bincount(rank), nm)
                first = np.cumsum(length) - length
                total = self.blocks[block[first], :, column[first]]
                for k in range(1, length.max(initial=0)):
                    more = length > k
                    at = first[more] + k
                    total[more] += self.blocks[block[at], :, column[at]]
                row_ids[signature] = len(values) + np.arange(cols.size)
                values.extend(total.reshape(cols.size, nm, nm)
                              .transpose(0, 2, 1))
            rows.append(np.full(cols.size, e))
            cols_of.append(cols)
            ids.append(row_ids[signature])
        rows, cols = np.concatenate(rows), np.concatenate(cols_of)
        ids = np.concatenate(ids)
        csc = np.lexsort((rows, cols))
        return rows[csc], cols[csc], ids[csc], np.stack(values)

    def _tocsc(self, pairs=None) -> tuple:
        """The CSC arrays (data, indices, indptr) SuperLU factors, written
        block by block, bit for bit those of scipy's COO-to-CSR conversion
        of every term followed by its CSR-to-CSC one, with int32 indices,
        SuperLU's index type.  Column element f stores its k pairs as one
        (nm, k, nm) run: column, row element, row.  ``pairs`` is
        ``_pairs()``, built here if not given."""
        nm, ne = self.blocks.shape[1], self.n_elements
        rows, cols, ids, values = self._pairs() if pairs is None else pairs
        size, nnz = ne * nm, rows.size * nm * nm
        if nnz > np.iinfo(np.int32).max:
            raise ValueError(f"{nnz} stored entries exceed SuperLU's int32 "
                             f"indices")
        per_col = np.bincount(cols, minlength=ne)
        indptr = np.zeros(size + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.repeat(per_col * nm, nm))
        indices = np.empty(nnz, dtype=np.int32)
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
        return data, indices, indptr

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
    mesh: Mesh
    modes: list
    matrix: SipOperator
    rhs: np.ndarray


def _k1_legendre(p: int) -> np.ndarray:
    """Exact 1D stiffness int L_i' L_j' = min(i,j)(min(i,j)+1) for i+j even."""
    i, j = np.indices((p + 1, p + 1))
    m = np.minimum(i, j)
    return np.where((i + j) % 2 == 0, m * (m + 1), 0).astype(float)


def _facets(mesh: Mesh):
    """``inner`` (nf, 3), the interior facets as (minus cell, plus cell,
    axis), the normal running from minus to plus, by minus cell and then
    axis; ``boundary[axis][side]``, the cells whose facet normal to ``axis``
    on the low (0) or high (1) side no other cell holds.  Both are read from
    an array that maps each cell's lattice position to its index."""
    cells = mesh.cells
    index = np.full(cells.max(axis=0) + 3, -1)
    index[_at(cells + 1)] = np.arange(mesh.n_elements)
    step = np.eye(mesh.dim, dtype=np.int64)
    # neighbour[cell, side, axis]: the cell across that facet, or -1
    neighbour = index[_at(cells[:, None, None] + 1 + np.stack([-step, step]))]
    minus, axis = np.nonzero(neighbour[:, 1] >= 0)
    boundary = [[np.flatnonzero(neighbour[:, side, k] < 0) for side in (0, 1)]
                for k in range(mesh.dim)]
    return np.stack([minus, neighbour[minus, 1, axis], axis], -1), boundary


def _on_boundary(g: Callable, mesh: Mesh, cells: np.ndarray, axis: int,
                 side: int, nodes: np.ndarray) -> np.ndarray:
    """g at the facet nodes of the boundary facets of ``cells`` normal to
    ``axis`` on ``side``: (cells, q).  A facet's corner is ``mesh._coords``
    of its lattice vertex, with node -1 on the normal axis, as
    ``fem._boundary_data`` reads a boundary entity, in the assembly and in
    the errors alike."""
    vertex = 2 * (mesh.cells[cells] + side * (np.arange(mesh.dim) == axis))
    grid = [np.array([-1.0]) if k == axis else nodes for k in range(mesh.dim)]
    return grid_values(g, _coords(mesh, vertex), mesh.h / 2.0,
                       grid).reshape(cells.size, -1)


def _facet_rule(spec: DgSpec, mesh: Mesh):
    """The facet Gauss rule, its weights times the facet jacobian h/2, and
    the penalty sigma_F = gamma p^2 / h_F: one copy for the matrix and for
    the norm that measures it."""
    rule = gauss_rule(spec.p + 2)
    sigma = spec.gamma * spec.p ** 2 / mesh.h
    return rule, rule.weights * (mesh.h / 2.0), sigma


def _tensors(coeffs: np.ndarray, flat: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (batch, modes) on the modes at ``flat`` as tensors
    (batch, p+1, p+1), zero off the family's index set."""
    C = np.zeros((coeffs.shape[0], (p + 1) ** 2))
    C[:, flat] = coeffs
    return C.reshape(-1, p + 1, p + 1)


def _traces(C: np.ndarray, along: np.ndarray, ends: np.ndarray, axis: int,
            side: int) -> np.ndarray:
    """Facet traces of a batch of coefficient tensors C (batch, p+1, p+1):
    the normal axis ``axis`` contracted first, with row ``side`` (0 low, 1
    high end) of the (2, p+1) end table ``ends`` (values or slopes at -1
    and +1), then the facet's own axis with the (q, p+1) table ``along``.
    Returns (batch, q).  The assembly passes one-hot tensors of its modes,
    the norm the solution's coefficients."""
    normal, tangent = [None, None], [along, along]
    normal[axis], tangent[axis] = ends[side:side + 1], None
    return apply_axes(apply_axes(C, normal), tangent).reshape(C.shape[0], -1)


def assemble_sip(mesh_n: int, spec: DgSpec, f: Callable,
                 g: Callable) -> DgSystem:
    """Assemble the SIP system on the n x n uniform mesh of the unit square."""
    mesh = mesh_uniform(2, mesh_n)
    p, a = spec.p, mesh.h / 2.0
    modes = enumerate_modes(BasisSpec(2, p, spec.family))
    nm, ne = len(modes), mesh.n_elements
    inner, boundary = _facets(mesh)
    flat = flat_positions(modes, p)
    M1 = np.diag(2.0 / (2.0 * np.arange(p + 1) + 1.0))
    K_vol = kron_laplacian(M1, _k1_legendre(p), 2)[np.ix_(flat, flat)]

    frule, wfac, sigma = _facet_rule(spec, mesh)
    # tval[axis][side], tder[axis][side]: (modes, q), each mode's trace on
    # the facet and its reference slope along the axis, unsigned
    one_hot = _tensors(np.eye(nm), flat, p)
    along, ends = legendre_table(p, frule.nodes).T, np.array([-1.0, 1.0])
    tval, tder = ([[_traces(one_hot, along, tab, axis, side) for side in (0, 1)]
                   for axis in (0, 1)]
                  for tab in (legendre_table(p, ends).T,
                              legendre_deriv_table(p, 1, ends).T))

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
    rhs = np.zeros((ne, nm))
    for axis, side in product((0, 1), repeat=2):
        T = tval[axis][side]
        D = tder[axis][side] * ((2 * side - 1.0) / a)    # outward derivative
        blocks.append(sigma * (T * wfac) @ T.T - (D * wfac) @ T.T
                      - (T * wfac) @ D.T)
        # a batch of one matrix-vector product per facet (a single GEMM over
        # the facets would round differently)
        cells = boundary[axis][side]
        gv = _on_boundary(g, mesh, cells, axis, side, frule.nodes)
        rhs[cells] += np.matmul(sigma * T - D, (wfac * gv)[..., None])[..., 0]
    rhs = rhs.ravel()

    # (row element, column element, block) in COO order: the volume blocks;
    # per element in cell order the 4 pair blocks of its +x, then of its +y
    # facet; the boundary facets per axis, low and high side interleaved
    # (each run of cells along an axis has one low and one high end).  That
    # order fixes the order in which each entry's terms are summed.
    bnd = [np.stack(boundary[axis], -1).ravel() for axis in (0, 1)]
    ea = np.concatenate([np.arange(ne), inner[:, [0, 0, 1, 1]].ravel()] + bnd)
    eb = np.concatenate([np.arange(ne), inner[:, [0, 1, 0, 1]].ravel()] + bnd)
    bid = np.concatenate([np.zeros(ne, dtype=np.int64),
                          (1 + 4 * inner[:, 2, None] + np.arange(4)).ravel()]
                         + [np.tile([9 + 2 * axis, 10 + 2 * axis], b.size // 2)
                            for axis, b in enumerate(bnd)])

    # volume load
    vrule = gauss_rule(p + 10)
    LW = legendre_table(p, vrule.nodes) * vrule.weights
    proj = apply_axes(grid_values(f, mesh.elem_lower, a, [vrule.nodes] * 2),
                      [LW, LW]) * a * a
    rhs += proj.reshape(ne, -1)[:, flat].ravel()

    A = SipOperator(blocks=np.stack(blocks),
                    terms=np.stack([ea, eb, bid], axis=-1), n_elements=ne)
    return DgSystem(spec=spec, mesh=mesh, modes=modes, matrix=A, rhs=rhs)


class _SuperMatrix(ctypes.Structure):
    """SuperLU's ``SuperMatrix``: the storage, number and shape tags, the
    shape, and the store the tags name."""

    _fields_ = ([(name, ctypes.c_int)
                 for name in ("Stype", "Dtype", "Mtype", "nrow", "ncol")]
                + [("Store", ctypes.c_void_p)])


class _Factors(ctypes.Structure):
    """The head of scipy's ``SuperLU`` object: the object header, then
    ``npy_intp m, n`` and the factors L and U."""

    _fields_ = [("head", ctypes.c_char * object.__basicsize__),
                ("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("L", _SuperMatrix), ("U", _SuperMatrix)]


class _Supernodes(ctypes.Structure):
    """SuperLU's ``SCformat``, the supernodal store of L."""

    _fields_ = ([("nnz", ctypes.c_int), ("nsuper", ctypes.c_int)]
                + [(name, ctypes.c_void_p)
                   for name in ("nzval", "nzval_colptr", "rowind",
                                "rowind_colptr", "col_to_sup", "sup_to_col")])


# the (Stype, Dtype, Mtype) tags of L, (SLU_SC, SLU_D, SLU_TRLU), and of U,
# (SLU_NC, SLU_D, SLU_TRU): supernodal and column-compressed, double
_L_TAGS, _U_TAGS = (3, 1, 1), (0, 1, 4)


def _in_place(address, ctype, count: int) -> np.ndarray:
    """The ``count`` values of C type ``ctype`` at ``address``, as an array
    over that memory (no copy)."""
    return np.frombuffer((ctype * count).from_address(address),
                         dtype=np.dtype(ctype))


def _pivots(lu: _superlu.SuperLU) -> np.ndarray:
    """diag(U) of scipy's SuperLU factorization ``lu``, read where SuperLU
    stores it: pivot j is the diagonal entry of column j in the diagonal
    block of its supernode of L, ``nzval[nzval_colptr[j] + j - f]`` with f
    the supernode's first column.  The diagonal of scipy's ``SuperLU.U``
    holds the same values, but that attribute builds and keeps CSC copies
    of both L and U.

    The layout is scipy 1.17.1's.  Before any pointer is followed, the
    object's type and size, its shape and the tags and shapes of L and U
    are checked; after, that the stores hold ``lu.nnz`` entries and that
    every pivot's row subscript is its column.  A mismatch raises
    ``RuntimeError``."""
    def mismatch(what: str) -> RuntimeError:
        return RuntimeError(
            f"dgfem._pivots reads SuperLU's factors in place as scipy 1.17.1 "
            f"lays them out; under scipy {scipy.__version__}, {what}")

    if (type(lu) is not _superlu.SuperLU
            or type(lu).__basicsize__ < ctypes.sizeof(_Factors)):
        raise mismatch(f"it got a {type(lu).__name__}, not scipy's SuperLU "
                       f"object, or that object is smaller")
    head, n = _Factors.from_address(id(lu)), lu.shape[1]
    tags = [(m.Stype, m.Dtype, m.Mtype) for m in (head.L, head.U)]
    if ((head.m, head.n) != lu.shape or tags != [_L_TAGS, _U_TAGS]
            or {head.L.nrow, head.L.ncol, head.U.nrow, head.U.ncol} != {n}):
        raise mismatch(f"the object's shape {(head.m, head.n)} and factor "
                       f"tags {tags} differ from {lu.shape} and "
                       f"{[_L_TAGS, _U_TAGS]}")
    L = _Supernodes.from_address(head.L.Store)
    if L.nnz + ctypes.c_int.from_address(head.U.Store).value != lu.nnz:
        raise mismatch("the factors' entries do not add up to lu.nnz")
    colptr, row_colptr = (_in_place(ptr, ctypes.c_int, n + 1)
                          for ptr in (L.nzval_colptr, L.rowind_colptr))
    first = _in_place(L.sup_to_col, ctypes.c_int, L.nsuper + 2)[
        _in_place(L.col_to_sup, ctypes.c_int, n)]
    j = np.arange(n)
    rows = _in_place(L.rowind, ctypes.c_int, row_colptr[n])
    if not np.array_equal(rows[row_colptr[first] + j - first], j):
        raise mismatch("a pivot's row subscript is not its column")
    at = colptr[:-1] + j - first
    return _in_place(L.nzval, ctypes.c_double, colptr[n])[at]


def dg_solve(system: DgSystem) -> BrokenSolution:
    """One sparse LU solve whose pivots prove the SIP matrix definite.

    SuperLU factorizes A once, with COLAMD ordering and diagonal pivots
    (``splu``'s call of SuperLU, with its options, made here directly): at
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
    ``IndefiniteSipError``, in that order of checks: asymmetry, a
    factorization that fails, a zero diagonal pivot, non-positive pivots,
    and only then the solve and its residual, so an indefinite system raises
    before it is solved.  diag(U) is read in place (``_pivots``), with no
    copy of L or U.

    The element pairs (``SipOperator._pairs``) are built once, for both
    the symmetry check on the element blocks (``SipOperator.asymmetry``)
    and the one expansion of ``system.matrix`` to the CSC arrays SuperLU
    factors (``SipOperator._tocsc``), whose sums of terms, one scipy sort
    per block-row signature, are bit for bit those of scipy's COO-to-CSR
    conversion; they are dropped before the factorization.  The symmetry
    check's scale, the largest |entry| of A, is read from the distinct
    summed blocks (at most 33 on the workload's meshes), which hold every
    stored entry, not from the CSC's data.  The residual is scipy's CSC
    matvec, into zeros, as ``A @ u`` takes it.
    """
    pairs = system.matrix._pairs()
    data, indices, indptr = system.matrix._tocsc(pairs)
    asym = system.matrix.asymmetry(pairs)
    # every stored entry is an entry of one of the distinct summed blocks;
    # max and -min make no |blocks| copy (3.9 MB at Q p = 10), whose pages
    # the heap would keep: dg's peak read 3.7 MB higher with it
    scale = max(pairs[3].max(initial=0.0), -pairs[3].min(initial=0.0))
    del pairs
    if not asym <= 1e-10 * max(scale, 1.0):
        raise IndefiniteSipError(f"system not symmetric: {asym:.2e}")
    size = system.matrix.shape[0]
    try:
        # L and U, which nothing here reads, would come as their raw arrays
        lu = _superlu.gstrf(size, data.size, data, indices, indptr,
                            csc_construct_func=lambda arrays, shape: arrays,
                            ilu=False, options=_LU_OPTIONS)
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
    n_nonpos = int(np.count_nonzero(_pivots(lu) <= 0.0))
    if n_nonpos:
        raise IndefiniteSipError(
            f"SIP matrix not positive definite: {n_nonpos} non-positive "
            f"pivot(s) of {size}")
    u = lu.solve(system.rhs)
    Au = np.zeros(size)
    _sparsetools.csc_matvec(size, size, indptr, indices, data, u, Au)
    res = (np.linalg.norm(Au - system.rhs)
           / max(np.linalg.norm(system.rhs), 1e-300))
    if not res < 1e-8:
        raise IndefiniteSipError(f"direct solve residual too large: {res:.2e}")
    nm = len(system.modes)
    return BrokenSolution(spec=system.spec, mesh=system.mesh,
                          modes=system.modes, coeffs=u.reshape(-1, nm),
                          residual_norm=float(res), factor_nnz=int(lu.nnz))


def broken_interpolant(spec: DgSpec, n: int, f: Callable) -> BrokenSolution:
    """Elementwise L2 projection of f onto the broken space on the n x n
    uniform mesh of the unit square (test oracle)."""
    mesh = mesh_uniform(2, n)
    p = spec.p
    modes = enumerate_modes(BasisSpec(2, p, spec.family))
    rule = gauss_rule(p + 10)
    L = legendre_table(p, rule.nodes)
    proj = L * rule.weights * ((2 * np.arange(p + 1) + 1.0) / 2.0)[:, None]
    C = apply_axes(grid_values(f, mesh.elem_lower, mesh.h / 2.0,
                               [rule.nodes] * 2), [proj, proj])
    coeffs = C.reshape(mesh.n_elements, -1)[:, flat_positions(modes, p)]
    return BrokenSolution(spec=spec, mesh=mesh, modes=modes, coeffs=coeffs)


def dg_errors(sol: BrokenSolution, exact: Callable,
              exact_gradient: Callable) -> dict:
    """L2, broken-H1 and SIP-energy errors against a smooth exact solution."""
    p, mesh = sol.spec.p, sol.mesh
    a = mesh.h / 2.0
    C = _tensors(sol.coeffs, flat_positions(sol.modes, p), p)

    rule = gauss_rule(2 * p + 4)
    L = legendre_table(p, rule.nodes).T
    dL = legendre_deriv_table(p, 1, rule.nodes).T
    w2 = np.outer(rule.weights, rule.weights) * a * a
    grid = (mesh.elem_lower, a, [rule.nodes] * 2)
    uex = grid_values(exact, *grid)
    l2_sq = np.sum(w2 * (uex - apply_axes(C, [L, L])) ** 2)
    h1_sq = np.sum(w2 * gradient_error_sq(
        C, [L, L], [dL, dL], exact_gradient(*element_grids(*grid)), a))

    # facet jumps of (u - u_h); u is continuous so only u_h jumps interiorly.
    # trace[axis, side]: u_h on each cell's low (0) or high (1) facet normal
    # to axis
    frule, wf, sigma = _facet_rule(sol.spec, mesh)
    along = legendre_table(p, frule.nodes).T
    ends = legendre_table(p, np.array([-1.0, 1.0])).T
    trace = {(axis, side): _traces(C, along, ends, axis, side)
             for axis, side in product((0, 1), repeat=2)}
    # the facet classes, interior per axis and then boundary per (axis,
    # side), as the values on the facets' two sides
    inner, boundary = _facets(mesh)
    minus, plus, normal = inner.T
    classes = [(trace[k, 1][minus[normal == k]],
                trace[k, 0][plus[normal == k]]) for k in (0, 1)]
    classes += [(_on_boundary(exact, mesh, cells, k, side, frule.nodes),
                 trace[k, side][cells])
                for k in (0, 1) for side, cells in enumerate(boundary[k])]
    jump_sq = 0.0
    for outer, own in classes:
        jump_sq += np.sum(wf * (outer - own) ** 2)

    return {"l2": float(np.sqrt(l2_sq)),
            "broken_h1": float(np.sqrt(h1_sq)),
            "dg_norm": float(np.sqrt(h1_sq + sigma * jump_sq))}
