"""Conforming FEM(Q)/FEM(S) Poisson solver on axis-aligned box meshes.

The local basis is the hierarchical C0 tensor basis: per axis
(1-x)/2, (1+x)/2, psi_1, ..., psi_{p-1}, so a local mode is a slot tuple m
(slot 0 or 1 a vertex function, slot m_k >= 2 the bubble psi_{m_k - 1}).  The
mode lives on the box entity with code min(m, 2) per axis (2 a free axis),
whose dimension j is its number of free axes.  ``indexsets.degree_mask``
decides which slot tuples a family keeps (slot m >= 2 has degree m): Q keeps
every one, S one iff its bubble slots sum to at most p.  All elements of a
mesh are congruent, so one local stiffness matrix (and one interior Schur
complement) is shared across elements.

A mesh (``hpexp.mesh``, re-exported here) is a set of integer cells on one
half-cell lattice: the entity of code c of cell i is the lattice point
2 i + (0, 2, 1)[c].  The entities of each dimension are numbered in lattice
order, so the dofs of all elements are one gather from a lattice array of
first dofs.  An edge mode runs along +axis in every element that holds the
edge, so the basis is conforming with no orientation signs.

The Dirichlet lift is built entity by entity in the same way: g at the
boundary vertices, then on each boundary entity of dimension j = 1..d-1 the
L2 projection of g minus the lift of its lower-dimensional entities onto its
kept bubbles, one routine for every j, batched by the entity's free axes.

The global solve is a static condensation run as one correction loop from
the Dirichlet lift: each pass condenses the residual onto the skeleton
(interior modes eliminated elementwise), solves it by a direct
factorization that certifies its definiteness, and back-substitutes the
interiors.

Quadrature is element-batched: the load, the Dirichlet data and the H1
error evaluate their integrands on the grids of all elements at once (one
batch per per-axis rule tuple; the H1 error in chunks of at most
``ERROR_CHUNK`` points) and contract them with ``orthopoly.apply_axes``.
The element-batch kernels are ``orthopoly``'s, shared with ``dgfem``:
``grid_values`` for the load and the boundary data, ``kron_laplacian`` for
the local stiffness and ``gradient_error_sq`` for the pointwise H1 error.

The skeleton is never assembled, in 2D or 3D.  Its free dofs are ordered by
nested dissection on the grid planes, which are grid lines in 2D (George
1973): a region of whole cells is cut on its longest axis at the grid plane
nearest the median of its dofs' lattice points, the free dofs on that
plane are the region's separator, and a one-cell region (or one outside the
L-shape) holds no free skeleton dof.  A region of at most ``LEAF_DOFS``
(128) free dofs is not cut: all of them are one leaf front, which spares
the Python cost of many small fronts, each microseconds of dense work (the
relaxed supernodes of Ashcraft & Grimes 1989).  The separators are
eliminated in postorder as dense fronts (the multifrontal method, Duff &
Reid 1983).
Each front is one square matrix, assembled from the element Schur
complements of the elements whose first eliminated free dof it holds, plus
its children's update matrices, and is factorized by ``dpotrf``, ``dtrsm``
and ``dsyrk`` on lower triangles, called in numpy's OpenBLAS through
``hpexp.lapack``.  One ``bincount`` adds the element Schur complements over
the whole square, and each child's update matrix goes in as block slices
over the runs of consecutive rows it shares with its parent, on and below
the diagonal only (Liu 1992 calls this step extend-add): no factorization
step reads an entry above the diagonal.  The inertia of the skeleton is the
sum of the inertias of the pivot blocks (Haynsworth additivity): a block
Cholesky rejects gets its count of non-positive eigenvalues from numpy's
``eigh`` and the elimination goes on, so ``IndefiniteSystemError`` names how
many non-positive eigenvalues the skeleton has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np
from numpy.linalg import eigh

from .errors import IndefiniteSystemError, RefinementError
from .functions import named_function
from .indexsets import _integer, bubble_indices, degree_mask, flat_positions
from .lapack import dpotrf, dpotrs, dsyrk, dtrsm, dtrtrs
from .mesh import (_HALF, Mesh, _at, _coords, _lattice, _unique_rows,
                   mesh_lshape, mesh_uniform)
from .orthopoly import (apply_axes, element_grids, gauss_rule,
                        gradient_error_sq, graded_rule, grid_values,
                        kron_laplacian, legendre_table, psi_table)

__all__ = [
    "Mesh",
    "DofMap",
    "AssembledSystem",
    "FemSolution",
    "mesh_uniform",
    "mesh_lshape",
    "build_dofmap",
    "assemble_poisson",
    "condense_solve",
    "IndefiniteSystemError",
    "RefinementError",
    "h1_error",
    "error_quadrature",
    "fem_problem",
    "FemProblem",
    "GRADED_SIGMA_DEFAULT",
]

GRADED_SIGMA_DEFAULT = 0.15
# quadrature points per chunk of h1_error: each of its grid-sized transients
# is at most 256 KB, unless one element or piece alone has more points
ERROR_CHUNK = 2 ** 15


# ---------------------------------------------------------------------------
# Degrees of freedom


@dataclass
class DofMap:
    """Global numbering of the hierarchical basis."""

    mesh: Mesh
    p: int
    family: str
    n_dof: int
    local_modes: list               # list of tensor slot tuples
    cell_dofs: np.ndarray           # (ne, nloc)
    interior_local: np.ndarray      # local indices of interior modes
    skeleton_local: np.ndarray
    interior_offset: int            # the first cell-interior dof
    dirichlet_mask: np.ndarray      # bool (n_dof,) boundary dofs
    first_dof: np.ndarray           # per lattice point, its entity's first dof
    bubbles: list                   # bubble_indices(j, p, family), j = 0..d


def build_dofmap(mesh: Mesh, p: int, family: str) -> DofMap:
    """Hierarchical numbering for family Q or S: the dofs of the entities of
    dimension j = 0..d follow each other, and each entity owns a contiguous
    block of its ``bubble_indices``.  The entities of one dimension below d
    are numbered in lattice (C) order, the cells in element order.  A local
    mode's dof is its entity's first dof plus its bubble rank."""
    if family not in ("Q", "S"):
        raise ValueError("conforming families are Q and S")
    _integer(p=p)
    if p < 1:
        raise ValueError("need p >= 1")
    d, ne = mesh.dim, mesh.n_elements
    bubbles = [bubble_indices(j, p, family) for j in range(d + 1)]
    dim_of, boundary = _lattice(mesh)
    counts = [np.count_nonzero(dim_of == j) for j in range(d)] + [ne]
    offsets = np.cumsum([0] + [n * len(bs) for n, bs in zip(counts, bubbles)])
    first = np.full(dim_of.shape, -1, dtype=np.int64)
    for j in range(d):
        first[dim_of == j] = offsets[j] + len(bubbles[j]) * np.arange(counts[j])
    first[_at(2 * mesh.cells + 1)] = offsets[d] + len(bubbles[d]) * np.arange(ne)

    modes, rank = _kept_modes(bubbles, p, family)
    half = _HALF[np.minimum(modes, 2)]
    # C order, as the gather/scatter kernels and their BLAS calls expect
    cell_dofs = np.ascontiguousarray(
        first[_at(2 * mesh.cells[:, None] + half)] + rank)
    dirichlet = np.concatenate([np.repeat(boundary[dim_of == j], len(bs))
                                for j, bs in enumerate(bubbles)])
    interior = (half % 2).sum(axis=1) == d
    return DofMap(mesh=mesh, p=p, family=family, n_dof=int(offsets[-1]),
                  local_modes=modes, cell_dofs=cell_dofs,
                  interior_local=np.nonzero(interior)[0],
                  skeleton_local=np.nonzero(~interior)[0],
                  interior_offset=int(offsets[d]),
                  dirichlet_mask=dirichlet, first_dof=first, bubbles=bubbles)


def _kept_modes(bubbles, p: int, family: str):
    """The slot tuples family Q or S keeps in the tensor basis of a
    j-dimensional box (``degree_mask``), in product order, and each one's
    bubble rank within its entity (the entity with code min(m, 2) per axis).
    ``bubbles[i]`` is ``bubble_indices(i, p, family)`` for i = 0..j."""
    j = len(bubbles) - 1
    ranks = [{b: r for r, b in enumerate(bs)} for bs in bubbles]
    modes = [tuple(m) for m in
             np.argwhere(degree_mask((p + 1,) * j, family, p)).tolist()]
    rank = [ranks[sum(x >= 2 for x in m)][tuple(x - 1 for x in m if x >= 2)]
            for m in modes]
    return modes, np.array(rank, dtype=np.int64)


# ---------------------------------------------------------------------------
# Local basis tables and matrices


def basis1d_values(p: int, x: np.ndarray) -> np.ndarray:
    """Rows: (1-x)/2, (1+x)/2, psi_1 .. psi_{p-1} at the points x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((p + 1, x.size))
    out[0] = 0.5 * (1.0 - x)
    out[1] = 0.5 * (1.0 + x)
    if p >= 2:
        out[2:] = psi_table(p - 1, x)[1:]
    return out


def basis1d_derivs(p: int, x: np.ndarray) -> np.ndarray:
    """Derivatives of the 1D hierarchical basis; psi_j' = L_j."""
    x = np.asarray(x, dtype=float)
    out = np.empty((p + 1, x.size))
    out[0] = -0.5
    out[1] = 0.5
    if p >= 2:
        out[2:] = legendre_table(p - 1, x)[1:]
    return out


def _local_matrices_1d(p: int):
    rule = gauss_rule(p + 1)
    B = basis1d_values(p, rule.nodes)
    D = basis1d_derivs(p, rule.nodes)
    M1 = (B * rule.weights) @ B.T
    K1 = (D * rule.weights) @ D.T
    return M1, K1


def local_stiffness(dim: int, p: int, h: float, modes) -> np.ndarray:
    """Shared local stiffness over the given local modes, physically scaled."""
    full = kron_laplacian(*_local_matrices_1d(p), dim)
    full *= (0.5 * h) ** (dim - 2)
    flat = flat_positions(modes, p)
    return full[np.ix_(flat, flat)]


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class AssembledSystem:
    """Global Poisson system in element-shared form.

    ``k_local`` is the (dense) local stiffness common to every element; the
    full sparse operator is realized through gather/scatter (``matvec``),
    which is what the condensation and the residual checks use.  ``load``
    is the fully assembled global load vector.
    """

    dofmap: DofMap
    k_local: np.ndarray
    load: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray

    def matvec(self, u: np.ndarray) -> np.ndarray:
        dm = self.dofmap
        W = u[dm.cell_dofs] @ self.k_local.T
        return np.bincount(dm.cell_dofs.ravel(), weights=W.ravel(),
                           minlength=dm.n_dof)

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.load - self.matvec(u)


def assemble_poisson(mesh: Mesh, dofmap: DofMap, f: Callable,
                     g: Callable) -> AssembledSystem:
    """Assemble stiffness/load and Dirichlet data for -Laplace(u) = f, u = g
    on the whole boundary.

    Stiffness uses (p+1)-point tensor Gauss (exact for these integrands), the
    load a (p+10)-point rule; boundary data is vertex interpolation plus, on
    each boundary entity of dimension 1..d-1, the L2 projection (same rule)
    of g minus the lift of its lower-dimensional entities onto its kept
    bubbles (``_boundary_data``).
    """
    if dofmap.mesh is not mesh:
        raise ValueError("dofmap was built for a different mesh")
    d, p = mesh.dim, dofmap.p
    ne = mesh.n_elements
    a = 0.5 * mesh.h

    k_local = local_stiffness(d, p, mesh.h, dofmap.local_modes)

    # load vector: f on the grids of all elements, one contraction per axis
    rule = gauss_rule(p + 10)
    BW = basis1d_values(p, rule.nodes) * rule.weights
    vals = grid_values(f, mesh.elem_lower, a, [rule.nodes] * d)
    Floc = apply_axes(vals, [BW] * d).reshape(ne, -1)
    Floc = Floc[:, flat_positions(dofmap.local_modes, p)] * a ** d
    load = np.zeros(dofmap.n_dof)
    np.add.at(load, dofmap.cell_dofs, Floc)

    dvals = _boundary_data(mesh, dofmap, g, rule)
    dir_ids = np.nonzero(dofmap.dirichlet_mask)[0]
    return AssembledSystem(dofmap=dofmap, k_local=k_local, load=load,
                           dirichlet_dofs=dir_ids, dirichlet_values=dvals[dir_ids])


def _boundary_data(mesh: Mesh, dofmap: DofMap, g: Callable, rule) -> np.ndarray:
    """Dirichlet data of every dof, zero off the boundary.

    The boundary vertices take g; then, for j = 1..d-1, each boundary
    j-entity takes the L2 projection (by ``rule`` per free axis) of g minus
    the lift of its lower-dimensional entities onto its kept bubbles.  The
    free axes of the entity at lattice point q are its odd coordinates, and
    the entities of one orientation form a batch.  On a free axis, slot 0, 1
    or >= 2 of the entity's tensor basis reads the entity at q - e_k, at
    q + e_k or q itself, with the bubble rank ``build_dofmap`` gives.  Each
    entity's Gram system is solved on its own (a stacked solve), so its
    values do not depend on the batch.
    """
    d, p, first = mesh.dim, dofmap.p, dofmap.first_dof
    dim_of, boundary = _lattice(mesh)
    dvals = np.zeros(dofmap.n_dof)
    q = np.argwhere(boundary & (dim_of == 0))
    dvals[first[_at(q)]] = g(*_coords(mesh, q).T)
    B = basis1d_values(p, rule.nodes)       # (1-t)/2, (1+t)/2, psi_1, ...
    PsiW = B[2:] * rule.weights
    for j in range(1, d):
        bubbles = dofmap.bubbles[j]
        if not bubbles:
            continue
        keep = np.ravel_multi_index((np.array(bubbles) - 1).T, (p - 1,) * j)
        gram = reduce(np.kron, [PsiW @ B[2:].T] * j)[np.ix_(keep, keep)]
        modes, rank = _kept_modes(dofmap.bubbles[:j + 1], p, dofmap.family)
        modes = np.array(modes)
        lift_modes = modes.min(axis=1) < 2  # all but the entity's own bubbles
        sub, rank = modes[lift_modes], rank[lift_modes]
        shift = _HALF[np.minimum(sub, 2)] - 1       # -1, +1 or 0 per free axis
        ents = np.argwhere(boundary & (dim_of == j))
        axes, batch = _unique_rows(ents % 2, (2,) * d)
        for b, free in enumerate(axes.astype(bool)):
            q = ents[batch == b]
            n = q.shape[0]
            step = np.zeros((sub.shape[0], d), dtype=np.int64)
            step[:, free] = shift
            lift = np.zeros((n, (p + 1) ** j))
            lift[:, flat_positions(sub, p)] = \
                dvals[first[_at(q[:, None] + step)] + rank]
            nodes = [rule.nodes if f else np.array([-1.0]) for f in free]
            vals = grid_values(g, _coords(mesh, q), 0.5 * mesh.h, nodes)
            resid = (vals.reshape((n,) + (rule.nodes.size,) * j)
                     - apply_axes(lift.reshape((n,) + (p + 1,) * j), [B.T] * j))
            rhs = apply_axes(resid, [PsiW] * j).reshape(n, -1)[:, keep]
            dvals[first[_at(q)][:, None] + np.arange(len(bubbles))] = \
                np.linalg.solve(gram, rhs[..., None])[..., 0]
    return dvals


# ---------------------------------------------------------------------------
# Condensed solve


REFINE_PASSES = 3
RESIDUAL_BOUND = 1e-9
# the largest region _dissect_skeleton keeps as one leaf front; of 32, 64,
# 128 and 256, 128 gave the least factor time summed over the fem2d and the
# fem3d benchmark systems
LEAF_DOFS = 128


def _dissect_skeleton(dofmap: DofMap, free_ids: np.ndarray):
    """Nested dissection of the free skeleton dofs on the grid planes.

    Each dof sits at its entity's lattice point: twice the cell index plus
    0, 2 or 1 per axis where the entity holds the lower end, the upper end
    or the whole axis of the cell.  A region (a box of whole
    cells) is split on its longest axis at the grid plane nearest the median
    of its dofs (the lower plane on a tie); the free dofs on that plane are
    its separator.  A region no grid plane crosses is one cell, and holds no
    skeleton dof.  A region of at most ``LEAF_DOFS`` free dofs is a leaf:
    it is not cut, and all its free dofs, in free-position order, are one
    separator with no children.  Returns the separators in postorder, as
    arrays of positions in ``free_ids``, and each separator's parent (-1 at
    the root).
    """
    cells, bl = dofmap.mesh.cells, dofmap.skeleton_local
    half = _HALF[np.minimum([dofmap.local_modes[i] for i in bl], 2)]
    coords = np.empty((dofmap.interior_offset, cells.shape[1]), dtype=np.int64)
    coords[dofmap.cell_dofs[:, bl]] = 2 * cells[:, None, :] + half
    coords = coords[free_ids]
    seps, parent = [], []

    def visit(idx, lo, hi):
        if idx.size == 0:
            return -1
        width = [h - l for l, h in zip(lo, hi)]
        a = width.index(max(width))
        if width[a] <= 2:
            raise ValueError("free skeleton dofs left in a one-cell region")
        if idx.size <= LEAF_DOFS:
            seps.append(idx)
            parent.append(-1)
            return len(seps) - 1
        c = coords[idx, a]
        # t = twice the median, an integer: the grid plane 2q nearest t / 2,
        # the lower one on a tie, has q = round(t / 4) with halves rounded
        # down, clamped to the planes lo + 2 .. hi - 2
        mid = np.partition(c, [(c.size - 1) // 2, c.size // 2])
        t = int(mid[(c.size - 1) // 2] + mid[c.size // 2])
        k = 2 * min(max((t + 1) // 4, lo[a] // 2 + 1), hi[a] // 2 - 1)
        upper, lower = list(hi), list(lo)
        upper[a] = lower[a] = k
        kids = (visit(idx[c < k], lo, upper), visit(idx[c > k], lower, hi))
        seps.append(idx[c == k])
        parent.append(-1)
        for kid in kids:
            if kid >= 0:
                parent[kid] = len(seps) - 1
        return len(seps) - 1

    visit(np.arange(free_ids.size), (2 * cells.min(axis=0)).tolist(),
          (2 * cells.max(axis=0) + 2).tolist())
    return seps, np.array(parent, dtype=np.int64)


class _Multifrontal:
    """Cholesky factor of the free skeleton as a list of dense fronts.

    ``perm`` lists the free positions in elimination order; each front is
    (s, e, upd, L11, L21): its pivot ranks s:e, its update ranks, and its
    factor blocks (L11 lower).  ``nnz`` counts the stored factor entries:
    the lower triangles of the L11 and every entry of the L21.
    """

    def __init__(self, perm, fronts):
        self.perm, self.fronts = perm, fronts
        self.nnz = int(sum((e - s) * (e - s + 1) // 2 + (e - s) * upd.size
                           for s, e, upd, _, _ in fronts))

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = b[self.perm]
        for s, e, upd, L11, L21 in self.fronts:
            if e > s:
                dtrtrs(L11, y[s:e])
                if upd.size:
                    y[upd] -= L21 @ y[s:e]
        for s, e, upd, L11, L21 in reversed(self.fronts):
            if e > s:
                if upd.size:
                    y[s:e] -= L21.T @ y[upd]
                dtrtrs(L11, y[s:e], trans=True)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def _factor_multifrontal(S_loc, dofmap: DofMap, free_ids: np.ndarray):
    """Nested-dissection multifrontal Cholesky of the free skeleton block.

    The separators of ``_dissect_skeleton`` are eliminated in postorder; a
    leaf front, a whole uncut region of at most ``LEAF_DOFS`` dofs, goes
    through the same fill, factorization and inertia count as any other
    separator, with no children to add.  An element's Schur complement is
    added into the front of its first eliminated free dof; its other free
    dofs lie on ancestor separators, so they are among that front's update
    rows.  The children's update matrices
    are added in, and the pivot block is factorized by ``dpotrf``, ``dtrsm``
    and ``dsyrk`` on lower triangles.  Every front is indexed in elimination
    order, so a child's lower triangle lands in its parent's.

    How a front is filled (``_front``, ``_extend_add``): a front F of m rows,
    k of them pivots, is one F-ordered m x m matrix.  ``dpotrf`` and ``eigh``
    read the lower triangle of the pivot block F[:k, :k], ``dtrsm`` reads
    F[k:, :k] (wholly below the diagonal) and ``dsyrk`` the lower triangle
    of the update block F[k:, k:], in place in F, so no entry above the
    diagonal is ever read.  One ``bincount`` adds the element Schur
    complements in element order over the whole square, and the children's
    update matrices follow in the order the children were eliminated, as
    block slices on and below the diagonal.  Each lower entry thus receives
    the same terms in the same order as a full ``np.add.at`` assembly would
    give it, so the factors do not depend on how the front is filled, bit
    for bit.

    The inertia of the block is the sum of the inertias of the pivot blocks
    (Haynsworth additivity).  A pivot block ``dpotrf`` rejects gets its count
    of non-positive eigenvalues from ``eigh``, and the elimination goes on
    through V diag(1/w) V^T, so ``IndefiniteSystemError`` reports the total
    count.  An exactly singular pivot block raises it at once.
    """
    seps, parent = _dissect_skeleton(dofmap, free_ids)
    n, n_nodes = free_ids.size, len(seps)
    sizes = np.array([s.size for s in seps], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    perm = np.concatenate(seps) if seps else np.zeros(0, dtype=np.int64)
    rank = -np.ones(dofmap.interior_offset, dtype=np.int64)
    rank[free_ids[perm]] = np.arange(n)
    bl = dofmap.skeleton_local
    ranks = rank[dofmap.cell_dofs[:, bl]]

    # each element goes to the front of its first eliminated free dof
    first = np.where(ranks >= 0, ranks, n).min(axis=1)
    owned = np.nonzero(first < n)[0]
    node_of = np.repeat(np.arange(n_nodes), sizes)[first[owned]]
    order = np.argsort(node_of, kind="stable")
    elements = np.split(owned[order], np.cumsum(
        np.bincount(node_of, minlength=n_nodes))[:-1])

    where = np.zeros(n, dtype=np.int64)      # rank -> row of the current front
    lower = np.tri(sizes.max(initial=0), dtype=bool)
    # S_loc once per element of the largest group: each front's bincount
    # reads its weights from a prefix, with no copy per front
    weights = np.tile(S_loc.ravel(), max(map(len, elements), default=0))
    pending, fronts = {}, []        # pending: parent -> children's updates
    n_nonpos = 0
    for node in range(n_nodes):
        s, e = starts[node], ends[node]
        R = ranks[elements[node]]
        kids = pending.pop(node, [])
        # the front's ranks, sorted, repeats dropped (np.unique's overhead is
        # 4x this on fronts this small)
        idx = np.concatenate([np.arange(s, e), R[R >= 0]]
                             + [ids for ids, _ in kids])
        idx.sort()
        keep = np.empty(idx.size, dtype=bool)
        keep[:1] = True
        np.not_equal(idx[1:], idx[:-1], out=keep[1:])
        idx = idx[keep]
        m, k = idx.size, e - s
        where[idx] = np.arange(m)
        F = _front(weights, where, R, m)
        for ids, U in kids:
            _extend_add(F, U, where[ids])
        kids = None                 # their buffers are spent: free them
        L11 = L21 = None
        U = F[k:, k:]
        if k:
            # the factors are copies (L11's upper triangle zero), so the
            # front is not kept for the solve
            L11 = np.zeros((k, k), order="F")
            np.copyto(L11, F[:k, :k], where=lower[:k, :k])
            if dpotrf(L11) == 0:
                if m > k:
                    L21 = np.array(F[k:, :k], order="F")
                    dtrsm(L11, L21)
                    # in place if the parent comes next; an update that
                    # waits for a sibling subtree goes to a copy, so the
                    # front with its pivot columns is freed now
                    if parent[node] != node + 1:
                        U = np.array(U, order="F")
                    dsyrk(L21, U)
            else:
                w, V = eigh(F[:k, :k], UPLO="L")
                n_nonpos += int(np.count_nonzero(w <= 0.0))
                if not np.all(np.abs(w) > 0.0):
                    raise IndefiniteSystemError(
                        f"skeleton not SPD: singular pivot block, at least "
                        f"{n_nonpos} non-positive pivot(s) of {n}")
                W = F[k:, :k] @ V
                U = U - (W / w) @ W.T
        fronts.append((s, e, idx[k:], L11, L21))
        if parent[node] >= 0 and m > k:     # no update rows, nothing to pass
            pending.setdefault(parent[node], []).append((idx[k:], U))
    if n_nonpos:
        raise IndefiniteSystemError(
            f"skeleton not SPD: {n_nonpos} non-positive pivot(s) of {n}")
    return _Multifrontal(perm, fronts)


def _front(weights, where, R, m: int):
    """An m x m front, F-ordered, holding the sum of the element Schur
    complements of its elements R (their ranks, -1 a Dirichlet dof): entry
    (where[R[e, i]], where[R[e, j]]) takes S_loc[i, j] for each free pair,
    element by element.  ``weights`` is S_loc raveled and repeated at least
    once per element.

    Entry (r, c) is bin r + m c of one ``bincount``, which adds the pairs in
    input order from 0.0.  A pair with a Dirichlet dof is sent past the last
    entry, and ``np.minimum`` folds all of them into one bin that is dropped.
    """
    drop = m * m
    if R.size:
        pos = np.where(R < 0, drop, where[R])
        flat = pos[:, :, None] + m * pos[:, None, :]
        np.minimum(flat, drop, out=flat)
        buf = np.bincount(flat.ravel(), weights[:flat.size], drop + 1)
    else:                   # bincount of no pairs would count in integers
        buf = np.zeros(drop + 1)
    return buf[:drop].reshape((m, m), order="F")


def _extend_add(F, U, loc):
    """Add a child's update matrix U into the front F on and below the
    diagonal: entry (loc[i], loc[j]) takes U[i, j] for i >= j, with ``loc``
    increasing.

    The rows of ``loc`` fall into maximal runs of consecutive front rows, and
    each pair of runs is one block slice.  A pair (a, b) with a < b lies
    wholly above the diagonal and is skipped: no factorization step reads an
    upper entry.  A diagonal pair adds its whole block.
    """
    cut = [0] + (np.flatnonzero(loc[1:] - loc[:-1] != 1) + 1).tolist()
    at = loc[cut].tolist()
    cut.append(loc.size)
    for b in range(len(at)):
        c0, c1, tc = cut[b], cut[b + 1], at[b]
        for a in range(b, len(at)):
            r0, r1, tr = cut[a], cut[a + 1], at[a]
            block = F[tr:tr + r1 - r0, tc:tc + c1 - c0]
            np.add(block, U[r0:r1, c0:c1], out=block)


def _element_schur(k_local: np.ndarray, dofmap: DofMap):
    """Static condensation of the shared local stiffness: the Cholesky
    factor U of its interior block (K_ii = U^T U, on and above the diagonal
    of an F-ordered array), K_ib, X = K_ii^-1 K_ib and the element Schur
    complement S_loc on the skeleton modes.  Without interior modes
    (Q p = 1; S p <= 3 in 2D, p <= 5 in 3D) the block is 0 x 0 and
    S_loc is K_bb.

    U is gathered into F order in one copy: the gather from ``k_local.T``
    is C-ordered, so its transpose is K_ii in F order, with no second copy
    (2.7 MB at Q p = 25 in 2D) to reorder it for LAPACK."""
    il, bl = dofmap.interior_local, dofmap.skeleton_local
    U = k_local.T[np.ix_(il, il)].T
    if dpotrf(U, lower=False):
        raise IndefiniteSystemError("interior block not SPD")
    Kib = k_local[np.ix_(il, bl)]
    X = np.array(Kib, order="F")                     # (ni, nb)
    dpotrs(U, X, lower=False)
    return U, Kib, X, k_local[np.ix_(bl, bl)] - Kib.T @ X


@dataclass
class FemSolution:
    """The solution with its diagnostics: the relative residual, the number
    of free skeleton dofs and the number of stored skeleton factor entries."""

    dofmap: DofMap
    values: np.ndarray
    residual_norm: float
    skeleton_free: int = 0
    factor_nnz: int = 0


def condense_solve(system: AssembledSystem, dofmap: DofMap) -> FemSolution:
    """Solve by static condensation as one correction loop.

    The loop starts from the Dirichlet lift: the boundary data on the
    boundary dofs, zero elsewhere.  Each pass condenses the residual of the
    uncondensed operator onto the skeleton (interior modes eliminated
    elementwise), solves the free skeleton block for the correction and
    back-substitutes the interiors; the first pass is the solve, the later
    ones are iterative refinement through the same factorization.  Each
    iterate's residual and relative residual come from one product A u.
    The loop stops once the relative residual is below ``RESIDUAL_BOUND``;
    if it is still at or above it after ``REFINE_PASSES`` passes beyond the
    first, ``RefinementError`` is raised.

    The free skeleton block is never assembled: ``_factor_multifrontal``
    orders it by nested dissection on the grid planes and factorizes it in
    dense fronts assembled from the element Schur complements.  A
    front whose Cholesky fails gets its eigenvalue count from its pivot
    block, so by Haynsworth additivity ``IndefiniteSystemError`` reports the
    number of non-positive eigenvalues.
    """
    il = dofmap.interior_local
    U, Kib, X, S_loc = _element_schur(system.k_local, dofmap)
    skel_dofs = dofmap.cell_dofs[:, dofmap.skeleton_local]
    n_skel = dofmap.interior_offset
    full_free = ~dofmap.dirichlet_mask      # the boundary dofs are skeleton
    free_ids = np.nonzero(full_free[:n_skel])[0]
    lu = _factor_multifrontal(S_loc, dofmap, free_ids)

    interiors = dofmap.cell_dofs[:, il]      # (ne, ni); interiors are unshared

    def condense(r):
        r_sk = r[:n_skel].copy()
        np.add.at(r_sk, skel_dofs.ravel(), -(r[interiors] @ X).ravel())
        return r_sk[free_ids]

    u = np.zeros(dofmap.n_dof)
    u[system.dirichlet_dofs] = system.dirichlet_values
    r = system.residual(u)
    for _ in range(REFINE_PASSES + 1):
        u[free_ids] += lu.solve(condense(r))
        rhs = np.asfortranarray(
            (system.load[interiors] - u[skel_dofs] @ Kib.T).T)
        dpotrs(U, rhs, lower=False)
        u[interiors] = rhs.T
        Au = system.matvec(u)
        r = system.load - Au
        rel = np.linalg.norm(r[full_free]) / max(
            np.linalg.norm(system.load), np.linalg.norm(Au), 1e-300)
        if rel < RESIDUAL_BOUND:
            break
    else:
        raise RefinementError(
            f"relative residual {rel:.3e} after {REFINE_PASSES} refinement "
            f"passes (bound {RESIDUAL_BOUND:g})")
    return FemSolution(dofmap=dofmap, values=u, residual_norm=float(rel),
                       skeleton_free=int(free_ids.size), factor_nnz=int(lu.nnz))


# ---------------------------------------------------------------------------
# Error measurement


def _element_rules(mesh: Mesh, graded_at, sigma: float, layers: int,
                   order: int):
    """Elements grouped by the quadrature ``h1_error`` integrates them with.

    Plain Gauss on every axis, except for the elements that have
    ``graded_at`` as a vertex: each is integrated on the corner pieces of
    ``graded_rule`` toward that vertex.  Returns a list of (element indices,
    per-axis nodes, per-axis weights): entry k is (order,) for plain Gauss
    and (pieces, order) on the corner pieces.
    """
    lo = mesh.elem_lower
    ends = np.zeros(lo.shape, dtype=int)
    if graded_at is not None:
        pt = np.asarray(graded_at, dtype=float)
        at_lo = np.abs(pt - lo) < 1e-12
        at_hi = np.abs(pt - (lo + mesh.h)) < 1e-12
        vertex = np.all(at_lo | at_hi, axis=1)[:, None]
        ends = np.where(vertex & at_lo, -1, np.where(vertex & at_hi, 1, 0))
    keys, group = _unique_rows(ends + 1, (3,) * ends.shape[1])
    out = []
    for g, key in enumerate(keys - 1):
        if key.any():
            rule = graded_rule(sigma, layers, order, tuple(key.tolist()))
            nodes, weights = list(rule.nodes), list(rule.weights)
        else:
            rule = gauss_rule(order)
            nodes, weights = [rule.nodes] * key.size, [rule.weights] * key.size
        out.append((np.nonzero(group == g)[0], nodes, weights))
    return out


def error_quadrature(p: int, layers: Optional[int] = None,
                     quad_order: Optional[int] = None,
                     sigma: float = GRADED_SIGMA_DEFAULT) -> tuple[int, int]:
    """(graded layers, Gauss points per axis) of ``h1_error`` at degree p: the
    values given, else ``max(p, 20)`` layers and ``max(2p, 12)`` points.

    The layer count is the one ``graded_rule`` keeps at ratio ``sigma``: it
    clamps layers past floating-point resolution (to 14 at sigma = 0.15).
    """
    order = quad_order if quad_order is not None else max(2 * p, 12)
    layers = layers if layers is not None else max(p, 20)
    return graded_rule(sigma, layers, order).layers, order


def h1_error(sol: FemSolution, exact_gradient: Callable, graded_at=None,
             sigma: float = GRADED_SIGMA_DEFAULT, layers: Optional[int] = None,
             quad_order: Optional[int] = None) -> float:
    """Elementwise |u - u_h|_{H1}; elements touching ``graded_at`` use the
    corner pieces of ``graded_rule``, the rest plain Gauss;
    ``error_quadrature`` gives the default layers and points.

    The elements sharing one rule are integrated together, in chunks of at
    most ``ERROR_CHUNK`` quadrature points (or one element or piece, if
    that is larger): a run of elements on plain Gauss, a run of pieces
    within one element on the corner pieces.  On the corner pieces every
    basis table is a stack of per-piece matrices, and the coefficient
    tensors gain a piece axis of length 1, so each contraction of
    ``apply_axes`` covers all pieces of the chunk at once.  Each chunk's
    exact gradient and squared gradient error are its own transients
    (an L-shape corner element is 43 pieces of 50 x 50 points at p = 25,
    4 chunks); the squares go into one buffer per rule, which is weighted
    and summed once.  ``apply_axes`` makes each element's and each piece's
    product alone, so the errors are bit for bit those of one batch per rule.
    """
    dofmap = sol.dofmap
    mesh, p, d = dofmap.mesh, dofmap.p, dofmap.mesh.dim
    ne, a = mesh.n_elements, 0.5 * mesh.h
    layers, order = error_quadrature(p, layers, quad_order, sigma)
    coeffs = np.zeros((ne, (p + 1) ** d))
    coeffs[:, flat_positions(dofmap.local_modes, p)] = \
        sol.values[dofmap.cell_dofs]
    coeffs = coeffs.reshape((ne,) + (p + 1,) * d)
    total = 0.0
    for elems, nodes, weights in _element_rules(mesh, graded_at, sigma,
                                                layers, order):
        pieces = nodes[0].shape[:-1]        # () for plain Gauss
        vals = [basis1d_values(p, x.ravel()).T.reshape(x.shape + (p + 1,))
                for x in nodes]
        ders = [basis1d_derivs(p, x.ravel()).T.reshape(x.shape + (p + 1,))
                for x in nodes]
        c = coeffs[elems].reshape((elems.size,) + (1,) * len(pieces)
                                  + (p + 1,) * d)
        grid = tuple(x.shape[-1] for x in nodes)
        err_sq = np.empty((elems.size,) + pieces + grid)
        # elements, or pieces of one element, per chunk
        step = max(1, ERROR_CHUNK // int(np.prod(grid)))
        if pieces:
            chunks = [(slice(e, e + 1), slice(j, j + step))
                      for e in range(elems.size)
                      for j in range(0, pieces[0], step)]
        else:
            chunks = [(slice(e, e + step), slice(None))
                      for e in range(0, elems.size, step)]
        for e, s in chunks:
            gex = exact_gradient(*element_grids(
                mesh.elem_lower[elems[e]], a, [x[s] for x in nodes]))
            err_sq[e, s] = gradient_error_sq(
                c[e], [v[s] for v in vals], [v[s] for v in ders], gex, a)
        # weighted in place, as the squares are summed
        err_sq *= reduce(np.multiply, [
            w.reshape(pieces + (1,) * k + (-1,) + (1,) * (d - 1 - k))
            for k, w in enumerate(weights)])
        total += float(np.sum(err_sq))
    return float(np.sqrt(total * a ** d))


# ---------------------------------------------------------------------------
# Problems: the product sine comes from functions.named_function, the one
# definition FEM and DG share; the L-shape corner solution is written here.


@dataclass(frozen=True)
class FemProblem:
    """A Poisson benchmark: its mesh, source, Dirichlet data and exact
    gradient, and whether the error quadrature grades toward the mesh's
    singular corner."""

    make_mesh: Callable[..., Mesh]
    source: Callable
    dirichlet: Callable
    exact_gradient: Callable
    graded: bool


def _lshape_angle(x, y):
    """Polar angle in [0, 2 pi) of (x, y), as ``arctan2(y, x)`` moved up by
    2 pi where negative, in one ``arctan2`` and no branch: the angle of the
    reflected point -(x, y), plus pi.  ``y + 0.0`` turns -0.0 into +0.0, so the
    positive x-axis keeps angle 0 rather than 2 pi."""
    return np.arctan2(-(y + 0.0), -x) + np.pi


def _lshape_solution(x, y):
    return np.hypot(x, y) ** (2.0 / 3.0) * np.sin(
        2.0 * _lshape_angle(x, y) / 3.0)


def _lshape_gradient(x, y):
    """grad(r^(2/3) sin(2 phi/3)) = (2/3) r^(-1/3) (-sin(phi/3), cos(phi/3)).

    The negations and squares act on the broadcast axes ``element_grids``
    gives, so the full grid sees one angle, one cube root and one sin/cos
    pair.  Past the angle and the squared radius every full-grid step works
    in place, in three buffers: a corner element's grid is 0.9 MB at p = 25.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    t = np.asarray(_lshape_angle(x, y))
    t /= 3.0
    # radius floor: quadrature nodes stay >= ~1e-13 from the corner, but a
    # node rounding exactly onto it must not blow up the integrand
    s = np.asarray(x * x + y * y)
    np.sqrt(s, out=s)
    np.maximum(s, 1e-20, out=s)
    np.cbrt(s, out=s)
    np.divide(2.0 / 3.0, s, out=s)
    gx = np.sin(t, out=np.empty_like(t))
    gx *= s
    np.negative(gx, out=gx)
    np.cos(t, out=t)
    t *= s
    return gx, t


def _zero(*xs):
    return reduce(np.multiply, xs, 0.0)


def fem_problem(name: str, n: Optional[int] = None) -> FemProblem:
    """Built-in benchmark problems: sine2d and sine3d, whose source and exact
    gradient come from ``functions.named_function("sine", d)`` with exact
    zeros as Dirichlet data, on 8^2 and 4^3 cells by default; lshape."""
    if name in ("sine2d", "sine3d"):
        dim = int(name[4])
        nn = n if n is not None else 8 if dim == 2 else 4
        u = named_function("sine", dim)
        return FemProblem(lambda: mesh_uniform(dim, nn, (0.0, 1.0)),
                          u.source, _zero, u.gradient, graded=False)
    if name == "lshape":
        return FemProblem(mesh_lshape, _zero, _lshape_solution,
                          _lshape_gradient, graded=True)
    raise ValueError(f"unknown problem {name!r}")
