"""Conforming FEM(Q)/FEM(S) Poisson solver on axis-aligned box meshes.

The local basis is the hierarchical C0 tensor basis: per axis
(1-x)/2, (1+x)/2, psi_1, ..., psi_{p-1}; products are classified by their set
of bubble axes into vertex / edge / face / interior functions.  Family Q keeps
every product; family S restricts face pairs to psi-index totals <= p-2 and 3D
interior triples to <= p-3 (the serendipity layout).  All elements of a mesh
are congruent, so one local stiffness matrix (and one interior Schur
complement) is shared across elements, and the local-mode -> (entity, sign)
table is derived once and gathered over the mesh's entity arrays.  The global
solve is a static condensation: interior modes eliminated elementwise,
skeleton solved by a sparse direct factorization, interiors back-substituted.

Quadrature is element-batched: the load and the H1 error evaluate their
integrands on the grids of all elements at once (one batch per per-axis rule
tuple) and contract them with ``orthopoly.apply_axes``.

The skeleton is factorized by SuperLU in symmetric mode (minimum-degree
ordering on A^T + A, diagonal pivots only), so the factorization is
P A P^T = L U with U = D L^T.  By Sylvester's law of inertia the signs of
diag(U) are the signs of the eigenvalues of A: the factorization itself
certifies that the skeleton is positive definite, or names how many
non-positive eigenvalues it has (``IndefiniteSystemError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from .indexsets import flat_positions, serendipity_layout
from .orthopoly import (apply_axes, element_grids, gauss_rule, graded_rule,
                        legendre_table, psi_table)

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
    "fem_problem",
    "FemProblem",
    "GRADED_SIGMA_DEFAULT",
]

GRADED_SIGMA_DEFAULT = 0.15


# ---------------------------------------------------------------------------
# Meshes


@dataclass
class Mesh:
    """Conforming mesh of congruent axis-aligned boxes with entity numbering."""

    dim: int
    vertices: np.ndarray            # (nv, d)
    elem_lower: np.ndarray          # (ne, d) lower corners
    h: float                        # element edge length (congruent cubes)
    elem_vertices: np.ndarray       # (ne, 2^d), corner c has bit k = offset on axis k
    edges: np.ndarray               # (nedge, 2) sorted vertex ids
    elem_edges: np.ndarray          # (ne, n_local_edges)
    edge_descriptors: list          # local edge -> (axis, transverse bits)
    faces: np.ndarray               # (nface, 4) sorted vertex ids (3D), else empty
    elem_faces: np.ndarray          # (ne, 6) in 3D
    face_descriptors: list          # local face -> (axis pair, remaining axis, bit)
    vertex_boundary: np.ndarray     # bool (nv,)
    edge_boundary: np.ndarray       # bool (nedge,)
    face_boundary: np.ndarray       # bool (nface,)
    singular_corner: Optional[np.ndarray] = None

    @property
    def n_elements(self) -> int:
        return self.elem_lower.shape[0]


def _corner_bits(d: int):
    return [tuple((c >> k) & 1 for k in range(d)) for c in range(2 ** d)]


def _edge_descriptors(d: int):
    out = []
    for axis in range(d):
        others = [k for k in range(d) if k != axis]
        for bits in product((0, 1), repeat=d - 1):
            out.append((axis, dict(zip(others, bits))))
    return out


def _face_descriptors(d: int):
    if d != 3:
        return []
    out = []
    for a, b in combinations(range(3), 2):
        rem = ({0, 1, 2} - {a, b}).pop()
        for bit in (0, 1):
            out.append(((a, b), rem, bit))
    return out


def _first_appearance(keys: np.ndarray):
    """Number the distinct rows of ``keys`` in order of first appearance.

    Returns each row's number and, per number, the row's first position."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], first[order]


def _build_mesh(dim: int, vertex_coords: np.ndarray, cells: list,
                grid_shape, h: float,
                singular_corner=None) -> Mesh:
    """Assemble entity tables from a vertex grid and a list of cell lattice
    coordinates; vertices not referenced by any cell are compacted away.

    Edges and faces are numbered by first appearance in element-major,
    local-slot-minor order."""
    bits = np.array(_corner_bits(dim), dtype=np.int64)          # (2^d, d)
    lattice = np.asarray(cells, dtype=np.int64)[:, None, :] + bits
    cell_vertex_grid = np.ravel_multi_index(tuple(np.moveaxis(lattice, -1, 0)),
                                            grid_shape)
    used = np.zeros(vertex_coords.shape[0], dtype=bool)
    used[cell_vertex_grid] = True
    remap = -np.ones(vertex_coords.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.sum())
    vertices = vertex_coords[used]
    elem_vertices = remap[cell_vertex_grid]
    ne = elem_vertices.shape[0]

    # local edge slot -> its two corners, the low one first along the axis
    edge_desc = _edge_descriptors(dim)
    low = [sum(bit << k for k, bit in tbits.items()) for _, tbits in edge_desc]
    ends = np.array([[c, c | 1 << axis] for c, (axis, _) in zip(low, edge_desc)])
    ev = np.sort(elem_vertices[:, ends], axis=-1).reshape(-1, 2)
    rank, first = _first_appearance(ev)
    elem_edges = rank.reshape(ne, -1)
    edges = ev[first]

    face_desc = _face_descriptors(dim)
    if face_desc:
        quad = np.array([[ba << a | bb << b | bit << rem
                          for ba, bb in product((0, 1), repeat=2)]
                         for (a, b), rem, bit in face_desc])
        fv = np.sort(elem_vertices[:, quad], axis=-1).reshape(-1, 4)
        rank, first = _first_appearance(fv)
        elem_faces = rank.reshape(ne, -1)
        faces = fv[first]
    else:
        elem_faces = np.zeros((ne, 0), dtype=np.int64)
        faces = np.zeros((0, 4), dtype=np.int64)

    # boundary entities: a facet shared by exactly one element is on the boundary
    vertex_boundary = np.zeros(vertices.shape[0], dtype=bool)
    if dim == 2:
        edge_boundary = np.bincount(elem_edges.ravel()) == 1
        face_boundary = np.zeros(0, dtype=bool)
        vertex_boundary[edges[edge_boundary]] = True
    else:
        face_boundary = np.bincount(elem_faces.ravel()) == 1
        edge_boundary = np.zeros(edges.shape[0], dtype=bool)
        for lf, (_, rem, bit) in enumerate(face_desc):
            on = face_boundary[elem_faces[:, lf]]
            slots = [le for le, (axis, tbits) in enumerate(edge_desc)
                     if axis != rem and tbits[rem] == bit]
            edge_boundary[elem_edges[on][:, slots]] = True
        vertex_boundary[faces[face_boundary]] = True

    return Mesh(dim=dim, vertices=vertices,
                elem_lower=vertices[elem_vertices[:, 0]], h=h,
                elem_vertices=elem_vertices, edges=edges, elem_edges=elem_edges,
                edge_descriptors=edge_desc, faces=faces, elem_faces=elem_faces,
                face_descriptors=face_desc, vertex_boundary=vertex_boundary,
                edge_boundary=edge_boundary, face_boundary=face_boundary,
                singular_corner=None if singular_corner is None
                else np.asarray(singular_corner, dtype=float))


def mesh_uniform(dim: int, n: int, domain=(0.0, 1.0)) -> Mesh:
    """n^d congruent elements on a cube given as (lo, hi) per axis or shared."""
    if n < 1:
        raise ValueError("need n >= 1")
    dom = np.asarray(domain, dtype=float)
    if dom.ndim == 1:
        dom = np.tile(dom, (dim, 1))
    widths = (dom[:, 1] - dom[:, 0]) / n
    if not np.allclose(widths, widths[0]):
        raise ValueError("elements must be congruent cubes")
    h = float(widths[0])
    axes = [dom[k, 0] + widths[k] * np.arange(n + 1) for k in range(dim)]
    grid_shape = (n + 1,) * dim
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    cells = list(product(range(n), repeat=dim))
    return _build_mesh(dim, coords, cells, grid_shape, h)


def mesh_lshape() -> Mesh:
    """The 12-element L-shape (-1,1)^2 minus [0,1) x (-1,0], squares of side 1/2."""
    axes = [np.linspace(-1.0, 1.0, 5)] * 2
    grid_shape = (5, 5)
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    cells = []
    for i, j in product(range(4), repeat=2):
        cx, cy = -1 + 0.5 * i + 0.25, -1 + 0.5 * j + 0.25
        if cx > 0 and cy < 0:
            continue
        cells.append((i, j))
    mesh = _build_mesh(2, coords, cells, grid_shape, 0.5)
    mesh.singular_corner = np.zeros(2)
    return mesh


# ---------------------------------------------------------------------------
# Degrees of freedom


@dataclass
class DofMap:
    """Global numbering of the hierarchical basis with orientation signs."""

    mesh: Mesh
    p: int
    family: str
    n_dof: int
    local_modes: list               # list of tensor slot tuples
    local_kind: np.ndarray          # 0 vertex, 1 edge, 2 face, 3 interior
    cell_dofs: np.ndarray           # (ne, nloc)
    cell_signs: np.ndarray          # (ne, nloc)
    interior_local: np.ndarray      # local indices of interior modes
    skeleton_local: np.ndarray
    edge_offset: int
    face_offset: int
    interior_offset: int
    face_rank: dict
    dirichlet_mask: np.ndarray      # bool (n_dof,) boundary dofs


def _local_modes(dim: int, p: int, family: str):
    """Enumerate local tensor slots and classify by bubble axes."""
    modes, kinds = [], []
    for m in product(range(p + 1), repeat=dim):
        bub = [k for k in range(dim) if m[k] >= 2]
        js = [m[k] - 1 for k in bub]
        if family == "S":
            if len(bub) == 2 and sum(js) > p - 2 and dim == 3:
                continue
            if len(bub) == dim and sum(js) > p - dim:
                continue
        modes.append(m)
        kinds.append(len(bub) if dim == 3 else (3 if len(bub) == 2 else len(bub)))
    return modes, np.array(kinds)


def build_dofmap(mesh: Mesh, p: int, family: str) -> DofMap:
    """Hierarchical vertex/edge(/face)/interior numbering for family Q or S."""
    if family not in ("Q", "S"):
        raise ValueError("conforming families are Q and S")
    if p < 1:
        raise ValueError("need p >= 1")
    d = mesh.dim
    modes, kinds = _local_modes(d, p, family)
    nloc = len(modes)
    ne = mesh.n_elements

    if family == "S":
        layout = serendipity_layout(d, p)
        face_modes = list(layout.face_indices)
        interior_modes = list(layout.interior_indices)
    else:
        face_modes = [(i, j) for i, j in product(range(1, p), repeat=2)] if d == 3 else []
        interior_modes = [m for m in product(range(1, p), repeat=d)]
    face_rank = {m: r for r, m in enumerate(face_modes)}
    interior_rank = {m: r for r, m in enumerate(interior_modes)}
    n_face_modes = len(face_modes)
    n_int = len(interior_modes)

    edge_offset = mesh.vertices.shape[0]
    face_offset = edge_offset + mesh.edges.shape[0] * (p - 1)
    interior_offset = face_offset + mesh.faces.shape[0] * n_face_modes
    n_dof = interior_offset + ne * n_int

    # per local mode, once: a column of the per-element entity table `ent`,
    # and dof = base + stride * entity id + rank; edge modes of even j flip
    # sign where the edge runs against the element's axis (corner c0 -> c1)
    ent = np.hstack([mesh.elem_vertices, mesh.elem_edges,
                     mesh.elem_faces.reshape(ne, -1), np.arange(ne)[:, None]])
    n_vl, n_el = mesh.elem_vertices.shape[1], mesh.elem_edges.shape[1]
    col, base, stride, rank, c0, c1 = np.zeros((6, nloc), dtype=np.int64)
    flip = np.zeros(nloc, dtype=bool)
    corner = lambda bits: sum(b << k for k, b in enumerate(bits))
    for lm, m in enumerate(modes):
        bub = [k for k in range(d) if m[k] >= 2]
        if not bub:
            col[lm], stride[lm] = corner(m), 1
        elif len(bub) == 1:
            axis = bub[0]
            j = m[axis] - 1
            tbits = {k: m[k] for k in range(d) if k != axis}
            col[lm] = n_vl + mesh.edge_descriptors.index((axis, tbits))
            base[lm], stride[lm], rank[lm] = edge_offset, p - 1, j - 1
            c0[lm] = corner([0 if k == axis else m[k] for k in range(d)])
            c1[lm] = corner([1 if k == axis else m[k] for k in range(d)])
            flip[lm] = j % 2 == 0
        elif len(bub) == 2 and d == 3:
            a, b = bub
            rem = 3 - a - b
            col[lm] = n_vl + n_el + mesh.face_descriptors.index(((a, b), rem, m[rem]))
            base[lm], stride[lm] = face_offset, n_face_modes
            rank[lm] = face_rank[(m[a] - 1, m[b] - 1)]
        else:
            col[lm] = ent.shape[1] - 1
            base[lm], stride[lm] = interior_offset, n_int
            rank[lm] = interior_rank[tuple(m[k] - 1 for k in range(d))]
    # C order, as the gather/scatter kernels and their BLAS calls expect
    cell_dofs = np.ascontiguousarray(base + stride * ent[:, col] + rank)
    cell_signs = np.ascontiguousarray(np.where(
        flip & (ent[:, c0] > ent[:, c1]), -1.0, 1.0))

    interior_local = np.nonzero(kinds == 3)[0]
    skeleton_local = np.nonzero(kinds != 3)[0]

    # each edge (face) owns a contiguous block of p - 1 (n_face_modes) dofs
    dirichlet = np.zeros(n_dof, dtype=bool)
    dirichlet[:edge_offset] = mesh.vertex_boundary
    dirichlet[edge_offset:face_offset] = np.repeat(mesh.edge_boundary, p - 1)
    dirichlet[face_offset:interior_offset] = np.repeat(mesh.face_boundary,
                                                       n_face_modes)

    return DofMap(mesh=mesh, p=p, family=family, n_dof=n_dof,
                  local_modes=modes, local_kind=kinds, cell_dofs=cell_dofs,
                  cell_signs=cell_signs, interior_local=interior_local,
                  skeleton_local=skeleton_local,
                  edge_offset=edge_offset, face_offset=face_offset,
                  interior_offset=interior_offset, face_rank=face_rank,
                  dirichlet_mask=dirichlet)


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
    M1, K1 = _local_matrices_1d(p)
    full = sum(reduce(np.kron, [K1 if j == k else M1 for j in range(dim)])
               for k in range(dim)) * (0.5 * h) ** (dim - 2)
    flat = flat_positions(modes, p)
    return full[np.ix_(flat, flat)]


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class AssembledSystem:
    """Global Poisson system in element-shared form.

    ``k_local`` is the (dense) local stiffness common to every element; the
    full sparse operator is realized through gather/scatter (``matvec``),
    which is what the condensation, residual checks and energy evaluations
    use.  ``load`` is the fully assembled global load vector.
    """

    dofmap: DofMap
    k_local: np.ndarray
    load: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray

    def matvec(self, u: np.ndarray) -> np.ndarray:
        dm = self.dofmap
        U = dm.cell_signs * u[dm.cell_dofs]
        W = U @ self.k_local.T
        out = np.bincount(dm.cell_dofs.ravel(),
                          weights=(dm.cell_signs * W).ravel(),
                          minlength=dm.n_dof)
        return out

    def energy(self, u: np.ndarray) -> float:
        return 0.5 * float(u @ self.matvec(u))

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.load - self.matvec(u)

    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.dofmap.n_dof, dtype=bool)
        mask[self.dirichlet_dofs] = False
        return mask


def assemble_poisson(mesh: Mesh, dofmap: DofMap, f: Callable,
                     g: Callable) -> AssembledSystem:
    """Assemble stiffness/load and Dirichlet data for -Laplace(u) = f, u = g
    on the whole boundary.

    Stiffness uses (p+1)-point tensor Gauss (exact for these integrands), the
    load a (p+10)-point rule; boundary data is vertex interpolation plus
    entity-wise L2 projection onto edge (and 3D face) bubbles.
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
    grids = element_grids(mesh.elem_lower, a, [rule.nodes] * d)
    vals = np.broadcast_to(np.asarray(f(*grids), dtype=float),
                           (ne,) + (rule.nodes.size,) * d)
    Floc = apply_axes(vals, [BW] * d).reshape(ne, -1)
    Floc = Floc[:, flat_positions(dofmap.local_modes, p)] * a ** d
    load = np.zeros(dofmap.n_dof)
    np.add.at(load, dofmap.cell_dofs, dofmap.cell_signs * Floc)

    # Dirichlet data: boundary values of every dof, read at the boundary dofs
    dir_ids = np.nonzero(dofmap.dirichlet_mask)[0]
    dvals = np.zeros(dofmap.n_dof)
    vids = np.nonzero(mesh.vertex_boundary)[0]
    dvals[vids] = g(*mesh.vertices[vids].T)
    if p >= 2:
        # edge bubbles: L2-project g minus the linear interpolant, all
        # boundary edges at once, each with its own matrix-vector product
        # and solve (one GEMM over the edges changes the round-off)
        t, w = rule.nodes, rule.weights
        Psi = psi_table(p - 1, t)[1:]
        eids = np.nonzero(mesh.edge_boundary)[0]
        v0, v1 = mesh.edges[eids].T
        pts = (0.5 * (1 - t)[:, None] * mesh.vertices[v0][:, None]
               + 0.5 * (1 + t)[:, None] * mesh.vertices[v1][:, None])
        resid = g(*np.moveaxis(pts, -1, 0)) - (0.5 * (1 - t) * dvals[v0][:, None]
                                               + 0.5 * (1 + t) * dvals[v1][:, None])
        rhs = np.matmul(Psi, (w * resid)[..., None])
        dvals[dofmap.edge_offset + eids[:, None] * (p - 1) + np.arange(p - 1)] = \
            np.linalg.solve((Psi * w) @ Psi.T, rhs)[..., 0]
    if d == 3 and p >= 2 and dofmap.face_rank:
        _project_face_data(mesh, dofmap, g, dvals)

    return AssembledSystem(dofmap=dofmap, k_local=k_local, load=load,
                           dirichlet_dofs=dir_ids, dirichlet_values=dvals[dir_ids])


def _project_face_data(mesh: Mesh, dofmap: DofMap, g, dvals: np.ndarray):
    """3D face bubbles: L2-project g minus the vertex/edge lift, per boundary
    face; the faces in one local face slot form one batch."""
    p, nfm = dofmap.p, len(dofmap.face_rank)
    rule = gauss_rule(p + 10)
    t = rule.nodes
    B = basis1d_values(p, t)                    # (1-t)/2, (1+t)/2, psi_1, ...
    PsiW = B[2:] * rule.weights
    face_modes = sorted(dofmap.face_rank, key=dofmap.face_rank.get)
    keep = np.array([(j1 - 1) * (p - 1) + (j2 - 1) for j1, j2 in face_modes])
    gram = np.kron(PsiW @ B[2:].T, PsiW @ B[2:].T)[np.ix_(keep, keep)]
    for lf, ((fa, fb), rem, bit) in enumerate(mesh.face_descriptors):
        elems = np.nonzero(mesh.face_boundary[mesh.elem_faces[:, lf]])[0]
        # the lift's coefficients in the face's tensor basis B x B
        lift = np.zeros((elems.size, p + 1, p + 1))
        for ia, ib in product((0, 1), repeat=2):
            bits = [0, 0, 0]
            bits[fa], bits[fb], bits[rem] = ia, ib, bit
            corner = sum(x << k for k, x in enumerate(bits))
            lift[:, ia, ib] = dvals[mesh.elem_vertices[elems, corner]]
        for side in (0, 1):
            for axis, other, at in ((fa, fb, np.s_[:, 2:, side]),
                                    (fb, fa, np.s_[:, side, 2:])):
                le = mesh.edge_descriptors.index((axis, {other: side, rem: bit}))
                eid = mesh.elem_edges[elems, le]
                lift[at] = dvals[dofmap.edge_offset + eid[:, None] * (p - 1)
                                 + np.arange(p - 1)]
        nodes = [t, t, t]
        nodes[rem] = np.array([2.0 * bit - 1.0])   # the face's own coordinate
        grids = element_grids(mesh.elem_lower[elems], 0.5 * mesh.h, nodes)
        vals = np.broadcast_to(np.asarray(g(*grids), dtype=float),
                               np.broadcast_shapes(*(x.shape for x in grids)))
        resid = vals.reshape(elems.size, t.size, t.size) - apply_axes(lift, [B.T, B.T])
        rhs = apply_axes(resid, [PsiW, PsiW]).reshape(elems.size, -1)[:, keep]
        fids = mesh.elem_faces[elems, lf]
        dvals[dofmap.face_offset + fids[:, None] * nfm + np.arange(nfm)] = \
            np.linalg.solve(gram, rhs.T).T


# ---------------------------------------------------------------------------
# Condensed solve


class IndefiniteSystemError(RuntimeError):
    """The condensed system is not symmetric positive definite."""


class RefinementError(RuntimeError):
    """Iterative refinement left the relative residual at or above its bound."""


REFINE_PASSES = 3
RESIDUAL_BOUND = 1e-9


def _factor_spd(A: sp.csc_matrix):
    """Symmetric-mode sparse LU of A with an inertia certificate.

    With the same permutation on rows and columns and diagonal pivots only,
    P A P^T = L U with unit lower L.  For symmetric A that makes U = D L^T,
    so by Sylvester's law of inertia the number of non-positive entries of
    diag(U) is the number of non-positive eigenvalues of A.  Raises
    ``IndefiniteSystemError`` unless that number is zero.
    """
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise IndefiniteSystemError("skeleton factorization failed") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise IndefiniteSystemError(
            "skeleton factorization left the diagonal (row and column "
            "permutations differ); no inertia certificate")
    n_nonpos = int(np.count_nonzero(lu.U.diagonal() <= 0.0))
    if n_nonpos:
        raise IndefiniteSystemError(
            f"skeleton not SPD: {n_nonpos} non-positive pivot(s) of "
            f"{A.shape[0]}")
    return lu


def _assemble_skeleton(S_loc, skel_dofs, skel_signs, n_skel: int):
    """Sparse sum of the signed element Schur complements over the skeleton.

    Chunked over the elements to bound peak memory; a function of its own so
    that the last chunk's dense blocks and index arrays are freed before the
    caller factorizes.
    """
    ne, nb = skel_dofs.shape
    S_glob = None
    chunk = max(1, int(2e7 // max(nb * nb, 1)))
    for start in range(0, ne, chunk):
        sl = slice(start, min(start + chunk, ne))
        signs = skel_signs[sl]
        data = np.einsum("ei,ej,ij->eij", signs, signs, S_loc)
        rows = np.repeat(skel_dofs[sl], nb, axis=1)
        cols = np.tile(skel_dofs[sl], (1, nb))
        part = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n_skel, n_skel)).tocsr()
        S_glob = part if S_glob is None else S_glob + part
    # no stored zeros, as after a sum of chunks: the ordering sees one pattern
    S_glob.eliminate_zeros()
    return S_glob


@dataclass
class FemSolution:
    dofmap: DofMap
    values: np.ndarray
    residual_norm: float


def condense_solve(system: AssembledSystem, dofmap: DofMap) -> FemSolution:
    """Eliminate interior modes elementwise, solve the skeleton, back-substitute.

    The free skeleton block is factorized in SuperLU's symmetric mode
    (``_factor_spd``); its pivots certify positive definiteness by Sylvester's
    law of inertia, and ``IndefiniteSystemError`` reports the number of
    non-positive pivots otherwise.  The solution is then checked against the
    uncondensed operator and refined through the same factorization, up to
    ``REFINE_PASSES`` times; ``RefinementError`` is raised if the relative
    residual is still at or above ``RESIDUAL_BOUND``.
    """
    mesh = dofmap.mesh
    K = system.k_local
    il, bl = dofmap.interior_local, dofmap.skeleton_local
    ne = mesh.n_elements
    ni, nb = il.size, bl.size

    if ni:
        try:
            cho = cho_factor(K[np.ix_(il, il)])
        except np.linalg.LinAlgError as exc:
            raise IndefiniteSystemError("interior block not SPD") from exc
        Kib = K[np.ix_(il, bl)]
        X = cho_solve(cho, Kib)                      # (ni, nb)
        S_loc = K[np.ix_(bl, bl)] - Kib.T @ X
    else:
        S_loc = K[np.ix_(bl, bl)]

    skel_dofs = dofmap.cell_dofs[:, bl]
    skel_signs = dofmap.cell_signs[:, bl]
    n_skel = dofmap.interior_offset
    rhs = system.load[:n_skel].copy()
    if ni:
        F_i = system.load[dofmap.cell_dofs[:, il]]   # (ne, ni); interiors unshared
        corr = F_i @ X                               # (ne, nb)
        np.add.at(rhs, skel_dofs.ravel(), -(skel_signs * corr).ravel())

    S_glob = _assemble_skeleton(S_loc, skel_dofs, skel_signs, n_skel)

    fixed = system.dirichlet_dofs
    gvals = system.dirichlet_values
    free = np.ones(n_skel, dtype=bool)
    free[fixed] = False
    free_ids = np.nonzero(free)[0]

    # one row slice gives the free block and the Dirichlet coupling; both
    # sparse copies are dropped before the factorization
    S_free = S_glob[free_ids]
    del S_glob
    A_ff = S_free[:, free_ids].tocsc()
    b = rhs[free_ids] - S_free[:, fixed] @ gvals
    del S_free
    lu = _factor_spd(A_ff)
    u_free = lu.solve(b)

    def back_substitute():
        if ni:
            Ub = skel_signs * u[skel_dofs]
            u[dofmap.cell_dofs[:, il]] = cho_solve(
                cho, (system.load[dofmap.cell_dofs[:, il]] - Ub @ Kib.T).T).T

    u = np.zeros(dofmap.n_dof)
    u[fixed] = gvals
    u[free_ids] = u_free
    back_substitute()

    # residual check against the uncondensed operator, with refinement
    full_free = system.free_mask()

    def rel_residual():
        r = system.residual(u)
        scale = max(np.linalg.norm(system.load),
                    np.linalg.norm(system.matvec(u)), 1e-300)
        return r, np.linalg.norm(r[full_free]) / scale

    r, rel = rel_residual()
    for _ in range(REFINE_PASSES):
        if rel < RESIDUAL_BOUND:
            break
        # one refinement pass through the same condensed factorization
        r_sk = r[:n_skel].copy()
        if ni:
            R_i = r[dofmap.cell_dofs[:, il]]
            np.add.at(r_sk, skel_dofs.ravel(), -(skel_signs * (R_i @ X)).ravel())
        u[free_ids] += lu.solve(r_sk[free_ids])
        back_substitute()
        r, rel = rel_residual()
    if not rel < RESIDUAL_BOUND:
        raise RefinementError(
            f"relative residual {rel:.3e} after {REFINE_PASSES} refinement "
            f"passes (bound {RESIDUAL_BOUND:g})")
    return FemSolution(dofmap=dofmap, values=u, residual_norm=float(rel))


# ---------------------------------------------------------------------------
# Error measurement


def _element_rules(mesh: Mesh, graded_at, sigma: float, layers: int,
                   order: int):
    """Elements grouped by their per-axis reference quadrature rules.

    Plain Gauss on every axis, except for the elements that have
    ``graded_at`` as a vertex: on each axis where the point lies at an end of
    the element, the rule is graded toward that end.  Returns a list of
    (element indices, per-axis rules).
    """
    lo = mesh.elem_lower
    ends = np.zeros(lo.shape, dtype=int)
    if graded_at is not None:
        pt = np.asarray(graded_at, dtype=float)
        at_lo = np.abs(pt - lo) < 1e-12
        at_hi = np.abs(pt - (lo + mesh.h)) < 1e-12
        vertex = np.all(at_lo | at_hi, axis=1)[:, None]
        ends = np.where(vertex & at_lo, -1, np.where(vertex & at_hi, 1, 0))
    keys, group = np.unique(ends, axis=0, return_inverse=True)
    return [(np.nonzero(group.ravel() == g)[0],
             [gauss_rule(order) if end == 0
              else graded_rule(sigma, layers, order, int(end)) for end in key])
            for g, key in enumerate(keys)]


def h1_error(sol: FemSolution, exact_gradient: Callable, graded_at=None,
             sigma: float = GRADED_SIGMA_DEFAULT, layers: Optional[int] = None,
             quad_order: Optional[int] = None) -> float:
    """Elementwise |u - u_h|_{H1}; elements touching ``graded_at`` use the
    tensorized graded rule, the rest plain Gauss with 2p points (min 12).

    The elements sharing one per-axis rule tuple are integrated as one batch.
    """
    dofmap = sol.dofmap
    mesh, p, d = dofmap.mesh, dofmap.p, dofmap.mesh.dim
    ne, a = mesh.n_elements, 0.5 * mesh.h
    order = quad_order if quad_order is not None else max(2 * p, 12)
    layers = layers if layers is not None else max(p, 20)
    coeffs = np.zeros((ne, (p + 1) ** d))
    coeffs[:, flat_positions(dofmap.local_modes, p)] = \
        dofmap.cell_signs * sol.values[dofmap.cell_dofs]
    coeffs = coeffs.reshape((ne,) + (p + 1,) * d)
    total = 0.0
    for elems, rules in _element_rules(mesh, graded_at, sigma, layers, order):
        vals = [basis1d_values(p, r.nodes).T for r in rules]
        ders = [basis1d_derivs(p, r.nodes).T for r in rules]
        gex = exact_gradient(*element_grids(mesh.elem_lower[elems], a,
                                            [r.nodes for r in rules]))
        # partial derivative k: the derivative table on axis k only
        err_sq = sum((gex[k] - apply_axes(coeffs[elems], [
            ders[j] if j == k else vals[j] for j in range(d)]) / a) ** 2
            for k in range(d))
        total += float(np.sum(reduce(np.multiply.outer,
                                     [r.weights for r in rules]) * err_sq))
    return float(np.sqrt(total * a ** d))


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class FemProblem:
    name: str
    dim: int
    make_mesh: Callable[..., Mesh]
    source: Callable
    dirichlet: Callable
    exact_gradient: Callable
    graded: bool


def _lshape_solution(x, y):
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    return r ** (2.0 / 3.0) * np.sin(2.0 * phi / 3.0)


def _lshape_gradient(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xb = np.broadcast_to(x, shape)
    yb = np.broadcast_to(y, shape)
    # radius floor: quadrature nodes stay >= ~1e-13 from the corner, but a
    # node rounding exactly onto it must not blow up the integrand
    r = np.maximum(np.hypot(xb, yb), 1e-20)
    phi = np.arctan2(yb, xb)
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    ur = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.sin(2.0 * phi / 3.0)
    ut = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.cos(2.0 * phi / 3.0)
    c, s = np.cos(phi), np.sin(phi)
    return (ur * c - ut * s, ur * s + ut * c)


def fem_problem(name: str, n: Optional[int] = None) -> FemProblem:
    """Built-in benchmark problems: sine2d, sine3d, lshape."""
    if name == "sine2d":
        nn = 8 if n is None else n

        def src(x, y):
            return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

        def grad(x, y):
            return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                    np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))

        return FemProblem(name, 2, lambda: mesh_uniform(2, nn, (0.0, 1.0)),
                          src, lambda x, y: 0.0 * x * y, grad, graded=False)
    if name == "sine3d":
        nn = 4 if n is None else n

        def src3(x, y, z):
            return (3 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
                    * np.sin(np.pi * z))

        def grad3(x, y, z):
            sx, sy, sz = np.sin(np.pi * x), np.sin(np.pi * y), np.sin(np.pi * z)
            cx, cy, cz = np.cos(np.pi * x), np.cos(np.pi * y), np.cos(np.pi * z)
            return (np.pi * cx * sy * sz, np.pi * sx * cy * sz, np.pi * sx * sy * cz)

        return FemProblem(name, 3, lambda: mesh_uniform(3, nn, (0.0, 1.0)),
                          src3, lambda x, y, z: 0.0 * x * y * z, grad3,
                          graded=False)
    if name == "lshape":
        return FemProblem(name, 2, mesh_lshape, lambda x, y: 0.0 * x * y,
                          _lshape_solution, _lshape_gradient, graded=True)
    raise ValueError(f"unknown problem {name!r}")
