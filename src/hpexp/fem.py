"""Conforming FEM(Q)/FEM(S) Poisson solver on axis-aligned box meshes.

The local basis is the hierarchical C0 tensor basis: per axis
(1-x)/2, (1+x)/2, psi_1, ..., psi_{p-1}; products are classified by their set
of bubble axes into vertex / edge / face / interior functions.  Family Q keeps
every product; family S restricts face pairs to psi-index totals <= p-2 and 3D
interior triples to <= p-3 (the serendipity layout).  All elements of a mesh
are congruent, so one local stiffness matrix (and one interior Schur
complement) is shared across elements; the global solve is a static
condensation: interior modes eliminated elementwise, skeleton solved by a
sparse direct factorization, interiors back-substituted.

The skeleton is factorized by SuperLU in symmetric mode (minimum-degree
ordering on A^T + A, diagonal pivots only), so the factorization is
P A P^T = L U with U = D L^T.  By Sylvester's law of inertia the signs of
diag(U) are the signs of the eigenvalues of A: the factorization itself
certifies that the skeleton is positive definite, or names how many
non-positive eigenvalues it has (``IndefiniteSystemError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from .indexsets import serendipity_layout
from .orthopoly import gauss_rule, graded_rule, legendre_table, psi_table

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


def _build_mesh(dim: int, vertex_coords: np.ndarray, cells: list,
                grid_shape, h: float,
                singular_corner=None) -> Mesh:
    """Assemble entity tables from a vertex grid and a list of cell lattice
    coordinates; vertices not referenced by any cell are compacted away."""
    corner_bits = _corner_bits(dim)
    nv_grid = vertex_coords.shape[0]
    used = np.zeros(nv_grid, dtype=bool)
    cell_vertex_grid = []
    for cell in cells:
        vids = []
        for bits in corner_bits:
            lattice = tuple(c + b for c, b in zip(cell, bits))
            vids.append(np.ravel_multi_index(lattice, grid_shape))
        cell_vertex_grid.append(vids)
        used[vids] = True
    remap = -np.ones(nv_grid, dtype=np.int64)
    remap[used] = np.arange(used.sum())
    vertices = vertex_coords[used]
    elem_vertices = remap[np.asarray(cell_vertex_grid, dtype=np.int64)]
    ne = elem_vertices.shape[0]

    edge_desc = _edge_descriptors(dim)
    edge_ids: dict = {}
    elem_edges = np.zeros((ne, len(edge_desc)), dtype=np.int64)
    for e in range(ne):
        for le, (axis, tbits) in enumerate(edge_desc):
            bits0 = [0] * dim
            for k, b in tbits.items():
                bits0[k] = b
            bits1 = bits0.copy()
            bits0[axis], bits1[axis] = 0, 1
            v0 = elem_vertices[e, sum(b << k for k, b in enumerate(bits0))]
            v1 = elem_vertices[e, sum(b << k for k, b in enumerate(bits1))]
            key = (min(v0, v1), max(v0, v1))
            elem_edges[e, le] = edge_ids.setdefault(key, len(edge_ids))
    edges = np.array(sorted(edge_ids, key=edge_ids.get), dtype=np.int64) \
        if edge_ids else np.zeros((0, 2), dtype=np.int64)

    face_desc = _face_descriptors(dim)
    face_ids: dict = {}
    elem_faces = np.zeros((ne, len(face_desc)), dtype=np.int64)
    face_edge_lists: list = []
    for e in range(ne):
        for lf, ((a, b), rem, bit) in enumerate(face_desc):
            vids = []
            for ba, bb in product((0, 1), repeat=2):
                bits = [0] * dim
                bits[a], bits[b], bits[rem] = ba, bb, bit
                vids.append(elem_vertices[e, sum(x << k for k, x in enumerate(bits))])
            key = tuple(sorted(vids))
            if key not in face_ids:
                face_ids[key] = len(face_ids)
                face_edge_lists.append(set())
            fid = face_ids[key]
            elem_faces[e, lf] = fid
            for le, (axis, tbits) in enumerate(edge_desc):
                if axis != rem and tbits.get(rem, None) == bit:
                    face_edge_lists[fid].add(elem_edges[e, le])
    faces = np.array(sorted(face_ids, key=face_ids.get), dtype=np.int64) \
        if face_ids else np.zeros((0, 4), dtype=np.int64)

    # boundary entities: a facet shared by exactly one element is on the boundary
    if dim == 2:
        counts = np.bincount(elem_edges.ravel(), minlength=len(edge_ids))
        edge_boundary = counts == 1
        face_boundary = np.zeros(0, dtype=bool)
        vertex_boundary = np.zeros(vertices.shape[0], dtype=bool)
        for eid in np.nonzero(edge_boundary)[0]:
            vertex_boundary[edges[eid]] = True
    else:
        counts = np.bincount(elem_faces.ravel(), minlength=len(face_ids))
        face_boundary = counts == 1
        edge_boundary = np.zeros(len(edge_ids), dtype=bool)
        vertex_boundary = np.zeros(vertices.shape[0], dtype=bool)
        for fid in np.nonzero(face_boundary)[0]:
            for eid in face_edge_lists[fid]:
                edge_boundary[eid] = True
            vertex_boundary[faces[fid]] = True

    elem_lower = np.array([vertices[ev[0]] for ev in elem_vertices])
    return Mesh(dim=dim, vertices=vertices, elem_lower=elem_lower, h=h,
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
    n_interior: int
    edge_offset: int
    face_offset: int
    interior_offset: int
    face_rank: dict
    interior_rank: dict
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
    nv, nedge = mesh.vertices.shape[0], mesh.edges.shape[0]
    nface = mesh.faces.shape[0]

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

    edge_offset = nv
    face_offset = edge_offset + nedge * (p - 1)
    interior_offset = face_offset + nface * n_face_modes
    n_dof = interior_offset + ne * n_int

    edge_desc = mesh.edge_descriptors
    edge_lookup = {}
    for le, (axis, tbits) in enumerate(edge_desc):
        edge_lookup[(axis, tuple(sorted(tbits.items())))] = le
    face_lookup = {}
    for lf, ((a, b), rem, bit) in enumerate(mesh.face_descriptors):
        face_lookup[((a, b), rem, bit)] = lf

    corner_bits = _corner_bits(d)
    cell_dofs = np.zeros((ne, nloc), dtype=np.int64)
    cell_signs = np.ones((ne, nloc))
    for e in range(ne):
        ev = mesh.elem_vertices[e]
        for lm, m in enumerate(modes):
            bub = [k for k in range(d) if m[k] >= 2]
            if not bub:
                c = sum(m[k] << k for k in range(d))
                cell_dofs[e, lm] = ev[c]
            elif len(bub) == 1:
                axis = bub[0]
                j = m[axis] - 1
                tbits = tuple(sorted((k, m[k]) for k in range(d) if k != axis))
                le = edge_lookup[(axis, tbits)]
                eid = mesh.elem_edges[e, le]
                bits0 = [m[k] if k != axis else 0 for k in range(d)]
                bits1 = [m[k] if k != axis else 1 for k in range(d)]
                v0 = ev[sum(b << k for k, b in enumerate(bits0))]
                v1 = ev[sum(b << k for k, b in enumerate(bits1))]
                cell_dofs[e, lm] = edge_offset + eid * (p - 1) + (j - 1)
                if v0 > v1 and j % 2 == 0:
                    cell_signs[e, lm] = -1.0   # odd-parity mode, reversed edge
            elif len(bub) == 2 and d == 3:
                a, b = bub
                rem = ({0, 1, 2} - {a, b}).pop()
                lf = face_lookup[((a, b), rem, m[rem])]
                fid = mesh.elem_faces[e, lf]
                rank = face_rank[(m[a] - 1, m[b] - 1)]
                cell_dofs[e, lm] = face_offset + fid * n_face_modes + rank
            else:
                rank = interior_rank[tuple(m[k] - 1 for k in range(d))]
                cell_dofs[e, lm] = interior_offset + e * n_int + rank

    interior_local = np.nonzero(kinds == 3)[0]
    skeleton_local = np.nonzero(kinds != 3)[0]

    dirichlet = np.zeros(n_dof, dtype=bool)
    dirichlet[:nv] = mesh.vertex_boundary
    for eid in np.nonzero(mesh.edge_boundary)[0]:
        dirichlet[edge_offset + eid * (p - 1):edge_offset + (eid + 1) * (p - 1)] = True
    for fid in np.nonzero(mesh.face_boundary)[0]:
        dirichlet[face_offset + fid * n_face_modes:
                  face_offset + (fid + 1) * n_face_modes] = True

    return DofMap(mesh=mesh, p=p, family=family, n_dof=n_dof,
                  local_modes=modes, local_kind=kinds, cell_dofs=cell_dofs,
                  cell_signs=cell_signs, interior_local=interior_local,
                  skeleton_local=skeleton_local, n_interior=n_int,
                  edge_offset=edge_offset, face_offset=face_offset,
                  interior_offset=interior_offset, face_rank=face_rank,
                  interior_rank=interior_rank, dirichlet_mask=dirichlet)


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
    n = p + 1
    mats = []
    for k in range(dim):
        factors = [K1 if j == k else M1 for j in range(dim)]
        if dim == 2:
            term = np.einsum("ab,cd->acbd", *factors)
        else:
            term = np.einsum("ab,cd,ef->acebdf", *factors)
        mats.append(term.reshape(n ** dim, n ** dim))
    full = sum(mats) * (0.5 * h) ** (dim - 2)
    flat = np.array([np.ravel_multi_index(m, (n,) * dim) for m in modes])
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


def _edge_bubble_gram(p: int) -> np.ndarray:
    rule = gauss_rule(p + 10)
    Psi = psi_table(p - 1, rule.nodes)[1:]
    return (Psi * rule.weights) @ Psi.T


def _project_edge_data(g, p: int, x0, x1, gv0, gv1) -> np.ndarray:
    """L2-project g minus the linear interpolant onto the edge bubbles."""
    rule = gauss_rule(p + 10)
    t = rule.nodes
    pts = 0.5 * (1 - t)[:, None] * x0 + 0.5 * (1 + t)[:, None] * x1
    vals = g(*(pts[:, k] for k in range(pts.shape[1])))
    resid = vals - (0.5 * (1 - t) * gv0 + 0.5 * (1 + t) * gv1)
    Psi = psi_table(p - 1, t)[1:]
    rhs = Psi @ (rule.weights * resid)
    return np.linalg.solve(_edge_bubble_gram(p), rhs)


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

    # load vector
    n_quad = p + 10
    rule = gauss_rule(n_quad)
    B = basis1d_values(p, rule.nodes)
    BW = B * rule.weights
    n = p + 1
    load = np.zeros(dofmap.n_dof)
    flat = np.array([np.ravel_multi_index(m, (n,) * d) for m in dofmap.local_modes])
    for e in range(ne):
        lo = mesh.elem_lower[e]
        coords = [lo[k] + a * (rule.nodes + 1.0) for k in range(d)]
        grids = np.meshgrid(*coords, indexing="ij", sparse=True)
        vals = np.asarray(f(*grids), dtype=float) * np.ones((n_quad,) * d)
        Floc = vals
        for axis in range(d):
            Floc = np.tensordot(BW, Floc, axes=([1], [axis]))
            Floc = np.moveaxis(Floc, 0, axis)
        Floc = Floc.reshape(-1)[flat] * a ** d
        np.add.at(load, dofmap.cell_dofs[e], dofmap.cell_signs[e] * Floc)

    # Dirichlet data
    dir_ids = np.nonzero(dofmap.dirichlet_mask)[0]
    value_map = dict.fromkeys(dir_ids.tolist(), 0.0)
    for vid in np.nonzero(mesh.vertex_boundary)[0]:
        value_map[vid] = float(g(*mesh.vertices[vid]))
    if p >= 2:
        for eid in np.nonzero(mesh.edge_boundary)[0]:
            v0, v1 = mesh.edges[eid]
            coeff = _project_edge_data(g, p, mesh.vertices[v0], mesh.vertices[v1],
                                       value_map[v0], value_map[v1])
            for j in range(1, p):
                value_map[dofmap.edge_offset + eid * (p - 1) + (j - 1)] = coeff[j - 1]
    if d == 3 and np.any(mesh.face_boundary):
        _project_face_data(mesh, dofmap, g, value_map)
    dir_vals = np.array([value_map[i] for i in dir_ids])

    return AssembledSystem(dofmap=dofmap, k_local=k_local, load=load,
                           dirichlet_dofs=dir_ids, dirichlet_values=dir_vals)


def _project_face_data(mesh: Mesh, dofmap: DofMap, g, value_map: dict):
    """3D face bubbles: L2-project g minus the vertex/edge lift, per face."""
    p = dofmap.p
    if p < 2 or not dofmap.face_rank:
        return
    rule = gauss_rule(p + 10)
    t = rule.nodes
    Psi = psi_table(p - 1, t)[1:]               # (p-1, q)
    lin = np.vstack([0.5 * (1 - t), 0.5 * (1 + t)])
    Mb = (Psi * rule.weights) @ Psi.T
    face_modes = sorted(dofmap.face_rank, key=dofmap.face_rank.get)
    keep = np.array([(j1 - 1) * (p - 1) + (j2 - 1) for j1, j2 in face_modes])
    gram = np.kron(Mb, Mb)[np.ix_(keep, keep)]

    # face -> (axes, element, bit) from any adjacent element
    seen = set()
    for e in range(mesh.n_elements):
        for lf, ((aax, bax), rem, bit) in enumerate(mesh.face_descriptors):
            fid = mesh.elem_faces[e, lf]
            if not mesh.face_boundary[fid] or fid in seen:
                continue
            seen.add(fid)
            lo = mesh.elem_lower[e]
            half = 0.5 * mesh.h
            fixed = lo[rem] + mesh.h * bit
            coords_a = lo[aax] + half * (t + 1.0)
            coords_b = lo[bax] + half * (t + 1.0)
            A, Bc = np.meshgrid(coords_a, coords_b, indexing="ij")
            pts = [None] * 3
            pts[aax], pts[bax], pts[rem] = A, Bc, np.full_like(A, fixed)
            vals = np.asarray(g(*pts), dtype=float)
            # subtract bilinear vertex interpolant
            corner_vals = np.empty((2, 2))
            for ba, bb in product((0, 1), repeat=2):
                bits = [0, 0, 0]
                bits[aax], bits[bax], bits[rem] = ba, bb, bit
                vid = mesh.elem_vertices[e, sum(x << k for k, x in enumerate(bits))]
                corner_vals[ba, bb] = value_map[vid]
            vals = vals - np.einsum("ab,aq,br->qr", corner_vals, lin, lin)
            # subtract the four edge lifts
            for axis_on_face, other, coords in (
                    (aax, bax, 0), (bax, aax, 1)):
                for bside in (0, 1):
                    tb = {other: bside, rem: bit}
                    le = None
                    for cand, (ax2, t2) in enumerate(mesh.edge_descriptors):
                        if ax2 == axis_on_face and t2 == tb:
                            le = cand
                            break
                    eid = mesh.elem_edges[e, le]
                    v0, v1 = mesh.edges[eid]
                    lift = np.zeros(t.size)
                    for j in range(1, p):
                        cj = value_map.get(
                            dofmap.edge_offset + eid * (p - 1) + (j - 1), 0.0)
                        lift += cj * Psi[j - 1]
                    blend = lin[bside]
                    if coords == 0:
                        vals -= lift[:, None] * blend[None, :]
                    else:
                        vals -= blend[:, None] * lift[None, :]
            rhs_full = np.einsum("aq,br,qr->ab", Psi * rule.weights,
                                 Psi * rule.weights, vals).reshape(-1)
            coeff = np.linalg.solve(gram, rhs_full[keep])
            base = dofmap.face_offset + fid * len(face_modes)
            for r in range(len(face_modes)):
                value_map[base + r] = coeff[r]


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

    # skeleton sparse assembly, chunked to bound peak memory
    S_glob = sp.csr_matrix((n_skel, n_skel))
    chunk = max(1, int(2e7 // max(nb * nb, 1)))
    for start in range(0, ne, chunk):
        sl = slice(start, min(start + chunk, ne))
        signs = skel_signs[sl]
        data = np.einsum("ei,ej,ij->eij", signs, signs, S_loc)
        rows = np.repeat(skel_dofs[sl], nb, axis=1)
        cols = np.tile(skel_dofs[sl], (1, nb))
        S_glob = S_glob + sp.coo_matrix(
            (data.ravel(), (rows.ravel(), cols.ravel())),
            shape=(n_skel, n_skel)).tocsr()

    fixed = system.dirichlet_dofs
    gvals = system.dirichlet_values
    free = np.ones(n_skel, dtype=bool)
    free[fixed] = False
    free_ids = np.nonzero(free)[0]

    A_ff = S_glob[free_ids][:, free_ids].tocsc()
    b = rhs[free_ids] - S_glob[free_ids][:, fixed] @ gvals
    lu = _factor_spd(A_ff)
    u_free = lu.solve(b)

    u = np.zeros(dofmap.n_dof)
    u[fixed] = gvals
    u[free_ids] = u_free
    if ni:
        Ub = skel_signs * u[skel_dofs]
        u_i = cho_solve(cho, (system.load[dofmap.cell_dofs[:, il]] - Ub @ Kib.T).T).T
        u[dofmap.cell_dofs[:, il]] = u_i

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
        if ni:
            Ub = skel_signs * u[skel_dofs]
            u_i = cho_solve(cho, (system.load[dofmap.cell_dofs[:, il]]
                                  - Ub @ Kib.T).T).T
            u[dofmap.cell_dofs[:, il]] = u_i
        r, rel = rel_residual()
    if not rel < RESIDUAL_BOUND:
        raise RefinementError(
            f"relative residual {rel:.3e} after {REFINE_PASSES} refinement "
            f"passes (bound {RESIDUAL_BOUND:g})")
    return FemSolution(dofmap=dofmap, values=u, residual_norm=float(rel))


# ---------------------------------------------------------------------------
# Error measurement


def _element_rules(mesh: Mesh, e: int, p: int, graded_at,
                   sigma: float, layers: int, order: int):
    """Per-axis reference quadrature rules; graded toward a singular corner."""
    lo = mesh.elem_lower[e]
    hi = lo + mesh.h
    rules = []
    for k in range(mesh.dim):
        if graded_at is not None and _touches(lo, hi, graded_at):
            if abs(graded_at[k] - lo[k]) < 1e-12:
                rules.append(graded_rule(sigma, layers, order, -1))
                continue
            if abs(graded_at[k] - hi[k]) < 1e-12:
                rules.append(graded_rule(sigma, layers, order, +1))
                continue
        rules.append(gauss_rule(order))
    return rules


def _touches(lo, hi, point) -> bool:
    return bool(np.all((point >= lo - 1e-12) & (point <= hi + 1e-12))
                and np.all((np.abs(point - lo) < 1e-12) | (np.abs(point - hi) < 1e-12)))


def h1_error(sol: FemSolution, exact_gradient: Callable, graded_at=None,
             sigma: float = GRADED_SIGMA_DEFAULT, layers: Optional[int] = None,
             quad_order: Optional[int] = None) -> float:
    """Elementwise |u - u_h|_{H1}; elements touching ``graded_at`` use the
    tensorized graded rule, the rest plain Gauss with 2p points (min 12)."""
    dofmap = sol.dofmap
    mesh, p, d = dofmap.mesh, dofmap.p, dofmap.mesh.dim
    a = 0.5 * mesh.h
    order = quad_order if quad_order is not None else max(2 * p, 12)
    layers = layers if layers is not None else max(p, 20)
    n = p + 1
    total = 0.0
    table_cache: dict = {}
    for e in range(mesh.n_elements):
        rules = _element_rules(mesh, e, p, graded_at, sigma, layers, order)
        tabs = []
        for rule in rules:
            key = (id(type(rule)), rule.nodes.tobytes())
            if key not in table_cache:
                table_cache[key] = (basis1d_values(p, rule.nodes),
                                    basis1d_derivs(p, rule.nodes))
            tabs.append(table_cache[key])
        coeffs = np.zeros((n,) * d)
        vals = dofmap.cell_signs[e] * sol.values[dofmap.cell_dofs[e]]
        for lm, m in enumerate(dofmap.local_modes):
            coeffs[m] = vals[lm]
        lo = mesh.elem_lower[e]
        phys = [lo[k] + a * (rules[k].nodes + 1.0) for k in range(d)]
        grids = np.meshgrid(*phys, indexing="ij", sparse=True)
        gex = exact_gradient(*grids)
        wgt = rules[0].weights
        for k in range(1, d):
            wgt = np.multiply.outer(wgt, rules[k].weights)
        err_sq = np.zeros_like(wgt)
        for k in range(d):
            out = coeffs
            for axis in range(d):
                mat = tabs[axis][1] if axis == k else tabs[axis][0]
                out = np.tensordot(mat.T, out, axes=([1], [axis]))
                out = np.moveaxis(out, 0, axis)
            gh = out / a
            diff = gex[k] - gh
            err_sq += diff * diff
        total += float(np.sum(wgt * err_sq)) * a ** d
    return float(np.sqrt(total))


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
        nn = n or 8

        def src(x, y):
            return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

        def grad(x, y):
            return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                    np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))

        return FemProblem(name, 2, lambda: mesh_uniform(2, nn, (0.0, 1.0)),
                          src, lambda x, y: 0.0 * x * y, grad, graded=False)
    if name == "sine3d":
        nn = n or 4

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
