from dataclasses import replace
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hpexp import fem, harness
from hpexp.bounds import lemma_audit, sharp_l2_ratio
from hpexp.expansion import CoeffTensor
from hpexp.functions import named_function
from hpexp.harness import run_sweep
from hpexp.indexsets import (BasisSpec, bubble_indices, dof_count,
                              flat_positions)
from hpexp.lapack import dpotrf, dpotrs
from hpexp.orthopoly import (apply_axes, element_grids, gauss_rule,
                             gradient_error_sq, kron_laplacian)
from hpexp.projections import (project_h1_p, project_h1_q, project_h1_s,
                               project_l2)
import skeleton_reference
from graded_reference import TABLE1, h1_error_one_batch, h1_error_tensorized
from skeleton_reference import factor_multifrontal_add_at, free_skeleton_matrix

LSHAPE_U_H1_SQ = 1.8362266618751626   # (1/3) int_0^{3pi/2} R(phi)^{4/3} dphi


@pytest.fixture(scope="module")
def lshape():
    return fem.mesh_lshape()


@pytest.fixture(scope="module")
def lshape_q3(lshape):
    dm = fem.build_dofmap(lshape, 3, "Q")
    system = fem.assemble_poisson(lshape, dm, lambda x, y: 0.0 * x * y,
                                  fem._lshape_solution)
    return fem.condense_solve(system, dm), system


def _reference_element(dim):
    """The reference element (-1, 1)^d as a one-cell mesh."""
    return fem.Mesh(dim, h=2.0, origin=np.full(dim, -1.0),
                    cells=np.zeros((1, dim), int))


def test_mesh_uniform_counts():
    assert fem.mesh_uniform(2, 8).n_elements == 64
    assert fem.mesh_uniform(3, 4).n_elements == 64
    # the unit box: edge 1/n from the origin
    unit = fem.mesh_uniform(3, 3)
    assert unit.h == 1 / 3 and np.array_equal(unit.origin, np.zeros(3))
    assert fem.mesh_uniform(np.int64(2), np.int64(3)).n_elements == 9


_INTEGER = "must be an integer"
_U = CoeffTensor(np.zeros((13, 13)))        # a 2D tensor of degree 12


@pytest.mark.parametrize("make, match", [
    (lambda: fem.mesh_uniform(2, True), _INTEGER),
    (lambda: fem.mesh_uniform(2, 2.5), _INTEGER),
    (lambda: fem.mesh_uniform(True, 2), _INTEGER),
    (lambda: fem.mesh_uniform(2.0, 2), _INTEGER),
    (lambda: fem.Mesh(dim=True, h=0.5, origin=np.zeros(1),
                      cells=np.array([[0], [1]])), _INTEGER),
    (lambda: dof_count(BasisSpec(2, 2.5, "Q")), _INTEGER),
    (lambda: BasisSpec(2, True, "Q"), _INTEGER),
    (lambda: BasisSpec(2.0, 2, "Q"), _INTEGER),
    (lambda: fem.build_dofmap(fem.mesh_uniform(2, 2), True, "Q"), _INTEGER),
    (lambda: fem.build_dofmap(fem.mesh_uniform(2, 2), 2.0, "Q"), _INTEGER),
    (lambda: lemma_audit(True, 4, 2), _INTEGER),
    (lambda: lemma_audit(2, 4.0, 2), _INTEGER),
    (lambda: sharp_l2_ratio(True, 3, 1), _INTEGER),
    (lambda: named_function("sine", 2.0), _INTEGER),
    (lambda: named_function("sine", 0), "dim >= 1"),
    (lambda: named_function("runge1d-tensor", 2, runge_a=0), "runge_a"),
    (lambda: named_function("runge1d-tensor", 2, runge_a=np.nan), "runge_a"),
    (lambda: named_function("runge1d-tensor", 2, runge_a=True), "runge_a"),
    (lambda: project_l2(_U, "Q", True), _INTEGER),
    (lambda: project_l2(_U, "Q", 2.0), _INTEGER),
    (lambda: project_h1_q(_U, True), _INTEGER),
    (lambda: project_h1_q(_U, 2.0), _INTEGER),
    (lambda: project_h1_s(_U, 5.0), _INTEGER),
    (lambda: project_h1_p(_U, 5.0), _INTEGER),
], ids=["n_boolean", "n_fraction", "dim_boolean", "dim_float", "mesh_dim",
        "basis_p_fraction", "basis_p_boolean", "basis_dim_float",
        "dofmap_p_boolean", "dofmap_p_float", "lemma_d_boolean",
        "lemma_M_float", "sharp_d_boolean", "function_dim_float",
        "function_dim_zero", "runge_a_zero", "runge_a_nan", "runge_a_boolean",
        "l2_p_boolean", "l2_p_float", "h1q_p_boolean", "h1q_p_float",
        "h1s_p_float", "h1p_p_float"])
def test_sizes_must_be_integers(make, match):
    # a boolean was read as 1 (a one-cell or a 1D mesh, a degree or a
    # dimension of 1; the L2 projection returned its degree-1 result), 2.5
    # gave a fractional Dof count, and 2.0 failed late with an unnamed
    # TypeError; a zero width or dimension gave a NaN or a 0-D function
    with pytest.raises(ValueError, match=match):
        make()


def test_sizes_take_numpy_integers():
    assert dof_count(BasisSpec(np.int64(2), np.int64(3), "Q")) == 16
    assert fem.build_dofmap(fem.mesh_uniform(2, 1), np.int64(1), "Q").n_dof == 4
    assert lemma_audit(np.int64(2), np.int64(2), np.int64(2)).holds
    assert named_function("sine", np.int64(2)).dim == 2


@pytest.mark.parametrize("cells, origin, match", [
    ([[0, 0], [1, 0], [1, 0]], (0.0, 0.0), "distinct"),
    ([[0, 0, 0], [1, 0, 0]], (0.0, 0.0), "shape"),
    ([[0], [1]], (0.0, 0.0), "shape"),
    ([[0.0, 0.0], [1.0, 0.0]], (0.0, 0.0), "integers"),
    (np.zeros((0, 2), dtype=int), (0.0, 0.0), "ne >= 1"),
    ([[0, 0], [1, 0]], (0.0, 0.0, 0.0), "origin"),
    ([[0, 0], [-1, 0]], (0.0, 0.0), "non-negative"),
    ([[0, 0], [1, 0]], (np.nan, 0.0), "origin"),
    ([[0, 0], [1, 0]], (np.inf, 0.0), "origin"),
    ([[0, 0], [1, 0]], ("0", "1"), "origin"),
    ([[0, 0], [1, 0]], (True, False), "origin"),
], ids=["duplicate", "wide_cells", "narrow_cells", "float_cells",
        "no_cells", "wide_origin", "negative", "nan_origin",
        "infinite_origin", "string_origin", "boolean_origin"])
def test_mesh_rejects_malformed_cells(cells, origin, match):
    # duplicate cells reached condense_solve and died there with "free
    # skeleton dofs left in a one-cell region"; a width other than dim failed
    # in build_dofmap with a broadcast error; a NaN or infinite origin gave
    # NaN or infinite corners with no error, and a string origin failed
    # later with a UFuncTypeError
    with pytest.raises(ValueError, match=match):
        fem.Mesh(dim=2, h=0.5, origin=np.array(origin), cells=np.array(cells))


@pytest.mark.parametrize("shape", [(3, 3), (2, 2, 2), (3, 3, 3), (5, 1, 4)])
def test_unique_rows_match_the_axis_form(shape):
    # the same groups in the same lexicographic order: h1_error sums its
    # element groups in that order
    rng = np.random.default_rng(len(shape))
    for n in (1, 7, 40):
        rows = rng.integers(0, shape, size=(n, len(shape)))
        keys, group = fem._unique_rows(rows, shape)
        want, want_group = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(keys, want)
        assert np.array_equal(group, want_group.ravel())


@pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf, True, "0.5"])
def test_mesh_rejects_a_cell_size_not_positive(h):
    # h = 0 gave an all-zero "solution" with residual 0, and h < 0 solved
    # on a mirrored mesh, both with no error; h = inf gave NaN corners with
    # a RuntimeWarning alone, h = True was read as 1, and a string failed
    # in the comparison with a TypeError
    with pytest.raises(ValueError, match="positive"):
        fem.Mesh(dim=2, h=h, origin=np.zeros(2), cells=np.array([[0, 0]]))


@pytest.mark.parametrize("name", ["sine2d", "sine3d"])
def test_fem_problem_zero_elements_is_an_error(name):
    # n = 0 must reach the mesh's check, not fall back to the default mesh
    with pytest.raises(ValueError, match="n >= 1"):
        fem.fem_problem(name, n=0).make_mesh()
    assert fem.fem_problem(name).make_mesh().n_elements == 64


def test_mesh_lshape_geometry(lshape):
    assert lshape.n_elements == 12
    assert lshape.n_elements * lshape.h ** 2 == pytest.approx(3.0)
    corners = lshape.h * np.array(list(product((0, 1), repeat=2)))
    at_origin = sum(
        1 for lo in lshape.elem_lower
        if np.any(np.all(np.abs(lo + corners) < 1e-12, axis=1)))
    assert at_origin == 3


def test_lshape_entity_census(lshape):
    """Independent geometric census of vertices/edges against the dofmap."""
    verts, edges = set(), set()
    for e in range(12):
        lo = lshape.elem_lower[e]
        h = lshape.h
        corners = [(round(lo[0] + h * bx, 9), round(lo[1] + h * by, 9))
                   for bx in (0, 1) for by in (0, 1)]
        verts.update(corners)
        edges.update({
            tuple(sorted((corners[0], corners[1]))),
            tuple(sorted((corners[2], corners[3]))),
            tuple(sorted((corners[0], corners[2]))),
            tuple(sorted((corners[1], corners[3])))})
    for p in (1, 3, 5):
        for fam in ("Q", "S"):
            dm = fem.build_dofmap(lshape, p, fam)
            if fam == "Q":
                n_int = (p - 1) ** 2
            else:
                n_int = len(bubble_indices(2, p, "S"))
            expect = len(verts) + len(edges) * (p - 1) + 12 * n_int
            assert dm.n_dof == expect


def _reference_entities(mesh):
    """The per-element entity loop, kept as the reference: every lattice
    point of every cell, with its dimension and whether it is on the
    boundary by the facet rule: every entity of a facet held by one cell is
    on the boundary.  Returns {point: (dimension, on boundary)}."""
    d = mesh.dim
    held = {}
    for cell in mesh.cells:
        for code in product(range(3), repeat=d):
            q = tuple(2 * int(i) + (0, 2, 1)[c] for i, c in zip(cell, code))
            held[q] = held.get(q, 0) + 1
    dims = {q: sum(x % 2 for x in q) for q in held}
    boundary = set()
    for q, n in held.items():
        if dims[q] == d - 1 and n == 1:
            free = [k for k in range(d) if q[k] % 2]
            for step in product((-1, 0, 1), repeat=d - 1):
                r = list(q)
                for k, s in zip(free, step):
                    r[k] += s
                boundary.add(tuple(r))
    return {q: (dims[q], q in boundary) for q in held}


def _coords(mesh, q):
    return mesh.origin + mesh.h * (np.array(q) // 2)


def _shuffled(mesh, seed):
    """The same mesh with its cells listed in random order."""
    order = np.random.default_rng(seed).permutation(mesh.n_elements)
    return replace(mesh, cells=mesh.cells[order])


def _block_minus_corner():
    """The 2 x 2 x 2 block of cubes without its upper corner cube: a
    non-convex 3D domain with a re-entrant vertex and three re-entrant
    edges."""
    cells = [c for c in product(range(2), repeat=3) if c != (1, 1, 1)]
    return fem.Mesh(dim=3, h=0.5, origin=np.zeros(3), cells=np.array(cells))


@pytest.mark.parametrize("make", [
    lambda: fem.mesh_uniform(2, 1), lambda: fem.mesh_uniform(2, 3),
    lambda: fem.mesh_uniform(2, 8), lambda: fem.mesh_uniform(3, 1),
    lambda: fem.mesh_uniform(3, 2), lambda: fem.mesh_uniform(3, 4),
    fem.mesh_lshape, lambda: _shuffled(fem.mesh_uniform(2, 4), 0),
    lambda: _shuffled(fem.mesh_uniform(3, 3), 1), _block_minus_corner,
], ids=["box2d_1", "box2d_3", "box2d_8", "box3d_1", "box3d_2", "box3d_4",
        "lshape", "shuffled2d", "shuffled3d", "nonconvex3d"])
def test_mesh_gathers_match_per_element_loop(make):
    mesh = make()
    ref = _reference_entities(mesh)
    dim_of, boundary = fem._lattice(mesh)
    assert np.count_nonzero(dim_of >= 0) == len(ref)
    for q, (j, on) in ref.items():
        assert (dim_of[q], boundary[q]) == (j, on), q
    vertices = sorted(q for q in ref if ref[q][0] == 0)
    assert np.array_equal(mesh.vertices, [_coords(mesh, q) for q in vertices])
    assert np.array_equal(mesh.elem_lower, [
        [o + mesh.h * float(i) for o, i in zip(mesh.origin, cell)]
        for cell in mesh.cells])


def test_dofmap_counts():
    single = _reference_element(2)
    assert fem.build_dofmap(single, 1, "Q").n_dof == 4
    assert fem.build_dofmap(single, 3, "S").n_dof == 12
    assert fem.build_dofmap(single, 3, "S").n_dof == dof_count(BasisSpec(2, 3, "S"))


def _reference_first_dofs(mesh, dm):
    """The entity numbering loop over lattice points, kept as the reference:
    the entities of each dimension below d in lattice order, each owning a
    contiguous block of its bubbles' dofs.  Returns each entity's first dof
    and the Dirichlet mask of the skeleton dofs."""
    ents = _reference_entities(mesh)
    first, mask = {}, np.zeros(dm.interior_offset, dtype=bool)
    start = 0
    for j in range(mesh.dim):
        size = len(bubble_indices(j, dm.p, dm.family))
        for q in sorted(q for q in ents if ents[q][0] == j):
            first[q] = start
            mask[start:start + size] = ents[q][1]
            start += size
    assert start == dm.interior_offset
    return first, mask


def _reference_cell_dofs(mesh, dm):
    """The per-element, per-mode numbering loop, kept as the reference: the
    local modes are the slot tuples in product order (for S those whose
    bubble slots sum to at most p), a mode's dof is its entity's first dof
    plus its bubble rank, the cells' own dofs following in element order."""
    d, p = mesh.dim, dm.p
    modes = [m for m in product(range(p + 1), repeat=d)
             if dm.family == "Q" or sum(x for x in m if x >= 2) <= p]
    interior = list(product(range(1, p), repeat=d))
    if dm.family == "S":        # psi-index total <= p - d, graded lex
        interior = sorted((i for i in interior if sum(i) <= p - d),
                          key=lambda i: (sum(i), i))
    interior_rank = {m: r for r, m in enumerate(interior)}
    face_rank = {b: r for r, b in enumerate(bubble_indices(2, p, dm.family))}
    first, _ = _reference_first_dofs(mesh, dm)
    dofs = np.zeros((mesh.n_elements, len(modes)), dtype=np.int64)
    for e, cell in enumerate(mesh.cells):
        for lm, m in enumerate(modes):
            bub = [k for k in range(d) if m[k] >= 2]
            q = tuple(2 * int(i) + (0, 2, 1)[min(x, 2)] for i, x in zip(cell, m))
            if len(bub) == d:
                dofs[e, lm] = (dm.interior_offset + e * len(interior_rank)
                               + interior_rank[tuple(k - 1 for k in m)])
            elif len(bub) == 2:
                dofs[e, lm] = first[q] + face_rank[tuple(m[k] - 1 for k in bub)]
            else:
                dofs[e, lm] = first[q] + sum(m[k] - 2 for k in bub)
    return dofs


@pytest.mark.parametrize("make, p", [
    (fem.mesh_lshape, 6),
    (lambda: _shuffled(fem.mesh_uniform(2, 3), 0), 5),
    (lambda: fem.mesh_uniform(3, 2), 7),
    (lambda: _shuffled(fem.mesh_uniform(3, 2), 1), 6),
    # p = 1 and 2: empty S face and interior bubble lists
    (fem.mesh_lshape, 1),
    (lambda: _shuffled(fem.mesh_uniform(3, 2), 1), 2),
    # 3D S at p = 3 (no face or interior bubbles) and p = 5 (no interior)
    (lambda: fem.mesh_uniform(3, 2), 3),
    (lambda: _shuffled(fem.mesh_uniform(3, 2), 1), 5),
    (_block_minus_corner, 4),
], ids=["lshape", "relabeled2d", "box3d", "relabeled3d", "lshape_p1",
        "relabeled3d_p2", "box3d_p3", "relabeled3d_p5", "nonconvex3d"])
@pytest.mark.parametrize("family", ["Q", "S"])
def test_dofmap_gathers_match_per_element_loop(make, p, family):
    # the relabeled meshes list their cells in random order: the entity
    # numbering must not depend on it
    mesh = make()
    dm = fem.build_dofmap(mesh, p, family)
    assert np.array_equal(dm.cell_dofs, _reference_cell_dofs(mesh, dm))
    _, mask = _reference_first_dofs(mesh, dm)
    assert np.array_equal(dm.dirichlet_mask[:dm.interior_offset], mask)
    assert not dm.dirichlet_mask[dm.interior_offset:].any()


def test_dofmap_continuity_across_edge():
    """A global dof vector must restrict to the same trace from both elements
    sharing an edge: every edge mode runs along +axis in both."""
    mesh = fem.mesh_uniform(2, 2)
    p = 5
    dm = fem.build_dofmap(mesh, p, "Q")
    rng = np.random.default_rng(2)
    u = rng.standard_normal(dm.n_dof)
    t = np.linspace(-1.0, 1.0, 9)
    B = fem.basis1d_values(p, t)
    vals = []
    for e in range(mesh.n_elements):
        coeffs = np.zeros((p + 1, p + 1))
        loc = u[dm.cell_dofs[e]]
        for lm, m in enumerate(dm.local_modes):
            coeffs[m] = loc[lm]
        vals.append(B.T @ coeffs @ B)
    # elements 0 and 2 share the vertical edge x = 0.5 (lexicographic cells)
    shared_left = vals[0][-1, :]
    shared_right = vals[2][0, :]
    assert np.max(np.abs(shared_left - shared_right)) < 1e-12


def test_patch_test_bilinear():
    mesh = fem.mesh_uniform(2, 3)
    dm = fem.build_dofmap(mesh, 1, "Q")
    g = lambda x, y: 1.0 + 2 * x - 3 * y + 0.5 * x * y
    system = fem.assemble_poisson(mesh, dm, lambda x, y: 0.0 * x * y, g)
    sol = fem.condense_solve(system, dm)
    gv = g(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.max(np.abs(sol.values - gv)) < 1e-11


def test_patch_test_trilinear_3d():
    mesh = fem.mesh_uniform(3, 2)
    dm = fem.build_dofmap(mesh, 1, "Q")
    g = lambda x, y, z: 1.0 + x - 2 * y + 3 * z + 0.25 * x * y * z
    system = fem.assemble_poisson(mesh, dm, lambda x, y, z: 0.0 * x * y * z, g)
    sol = fem.condense_solve(system, dm)
    gv = g(*mesh.vertices.T)
    assert np.max(np.abs(sol.values - gv)) < 1e-11


_POLYNOMIALS_3D = [
    ("Q", 3, lambda x, y, z: x ** 3 * y ** 2 * z - 2 * x * y ** 3 + z ** 2 + 1,
     lambda x, y, z: -(6 * x * y ** 2 * z + 2 * x ** 3 * z - 12 * x * y + 2),
     lambda x, y, z: (3 * x ** 2 * y ** 2 * z - 2 * y ** 3,
                      2 * x ** 3 * y * z - 6 * x * y ** 2, x ** 3 * y ** 2 + 2 * z)),
    ("S", 4, lambda x, y, z: x ** 2 * y ** 2 + x * y * z - z ** 3,
     lambda x, y, z: -(2 * y ** 2 + 2 * x ** 2 - 6 * z),
     lambda x, y, z: (2 * x * y ** 2 + y * z, 2 * x ** 2 * y + x * z,
                      x * y - 3 * z ** 2)),
]


@pytest.mark.parametrize("family, p, g, f, grad", _POLYNOMIALS_3D,
                         ids=["Q3", "S4"])
def test_patch_test_polynomial_3d(family, p, g, f, grad):
    # u in the space: the vertex, edge and face Dirichlet data reproduce its
    # trace exactly, so the discrete solution is u itself
    mesh = fem.mesh_uniform(3, 2)
    dm = fem.build_dofmap(mesh, p, family)
    sol = fem.condense_solve(fem.assemble_poisson(mesh, dm, f, g), dm)
    assert fem.h1_error(sol, grad) < 1e-12


@pytest.mark.parametrize("family, p, g, f, grad", _POLYNOMIALS_3D,
                         ids=["Q3", "S4"])
def test_nonconvex_3d_block(family, p, g, f, grad):
    """The 2 x 2 x 2 block minus one corner cube: the boundary flags follow
    the facet rule, the dofs count the entities found by geometry, and a
    polynomial of the space is reproduced."""
    mesh = _block_minus_corner()
    dim_of, boundary = fem._lattice(mesh)
    for q, (j, on) in _reference_entities(mesh).items():
        assert (dim_of[q], boundary[q]) == (j, on), q
    # the re-entrant vertex (1/2, 1/2, 1/2) and an edge from it along the
    # missing cube are on the boundary, the edge from it away from that
    # cube is not
    assert boundary[2, 2, 2] and boundary[3, 2, 2] and not boundary[1, 2, 2]
    ents = [set() for _ in range(4)]
    for lo in mesh.elem_lower:
        for code in product((0, 1, 2), repeat=3):
            ents[code.count(2)].add(frozenset(
                tuple(np.round(lo + mesh.h * np.array(b), 9)) for b in
                product(*((0, 1) if c == 2 else (c,) for c in code))))
    assert [len(e) for e in ents] == [26, 51, 33, 7]
    dm = fem.build_dofmap(mesh, p, family)
    assert dm.n_dof == sum(len(e) * len(bubble_indices(j, p, family))
                           for j, e in enumerate(ents))
    sol = fem.condense_solve(fem.assemble_poisson(mesh, dm, f, g), dm)
    assert sol.skeleton_free > 0
    assert fem.h1_error(sol, grad) < 1e-12


def _reference_dirichlet_values(mesh, dm, g):
    """The per-entity boundary data loop over lattice points, kept as the
    reference: g at each boundary vertex, then for j = 1..d-1 each boundary
    j-entity on its own, in lattice order, with the arithmetic of the
    batched routine: its lift read from its sub-entities' dofs one slot
    tuple at a time, g minus the lift projected onto its kept bubbles."""
    d, p = mesh.dim, dm.p
    ents = sorted(_reference_entities(mesh).items())
    first, _ = _reference_first_dofs(mesh, dm)
    dvals = np.zeros(dm.n_dof)
    for q, (j, on) in ents:
        if j == 0 and on:
            dvals[first[q]] = float(g(*_coords(mesh, q)))
    rule = gauss_rule(p + 10)
    B = fem.basis1d_values(p, rule.nodes)
    PsiW = B[2:] * rule.weights
    for j in range(1, d):
        bubbles = bubble_indices(j, p, dm.family)
        if not bubbles:
            continue
        keep = [np.ravel_multi_index(tuple(i - 1 for i in b), (p - 1,) * j)
                for b in bubbles]
        gram = reduce(np.kron, [PsiW @ B[2:].T] * j)[np.ix_(keep, keep)]
        ranks = [{b: r for r, b in enumerate(bubble_indices(i, p, dm.family))}
                 for i in range(j)]
        for q, (jq, on) in ents:
            if jq != j or not on:
                continue
            free = [k for k in range(d) if q[k] % 2]
            lift = np.zeros((1,) + (p + 1,) * j)
            for slots in product(range(p + 1), repeat=j):
                bub = tuple(x - 1 for x in slots if x >= 2)
                if len(bub) == j or bub not in ranks[len(bub)]:
                    continue            # the entity's own or a dropped bubble
                sub = list(q)
                for k, x in zip(free, slots):
                    sub[k] += (-1, 1, 0)[min(x, 2)]
                lift[(0,) + slots] = dvals[first[tuple(sub)]
                                           + ranks[len(bub)][bub]]
            nodes = [rule.nodes if k in free else np.array([-1.0])
                     for k in range(d)]
            vals = np.broadcast_to(np.asarray(g(*element_grids(
                _coords(mesh, q)[None], 0.5 * mesh.h, nodes)), dtype=float),
                (1,) + tuple(x.size for x in nodes))
            resid = (vals.reshape((1,) + (rule.nodes.size,) * j)
                     - apply_axes(lift, [B.T] * j))
            rhs = apply_axes(resid, [PsiW] * j).reshape(1, -1)[:, keep]
            dvals[first[q]:first[q] + len(bubbles)] = \
                np.linalg.solve(gram, rhs[..., None])[0, :, 0]
    return dvals[dm.dirichlet_mask]


def _explicit_dirichlet_values(mesh, dm, g):
    """Boundary data by explicit sums, as an independent check: on each
    boundary entity, the lift of its sub-entities summed term by term at
    every tensor quadrature point, the moments and the Gram matrix of its
    kept bubbles summed over those points."""
    d, p = mesh.dim, dm.p
    ents = sorted(_reference_entities(mesh).items())
    first, _ = _reference_first_dofs(mesh, dm)
    dvals = np.zeros(dm.n_dof)
    for q, (j, on) in ents:
        if j == 0 and on:
            dvals[first[q]] = float(g(*_coords(mesh, q)))
    rule = gauss_rule(p + 10)
    t = rule.nodes
    B = fem.basis1d_values(p, t)
    for j in range(1, d):
        bubbles = bubble_indices(j, p, dm.family)
        if not bubbles:
            continue
        points = np.array(list(product(range(t.size), repeat=j)))
        w = rule.weights[points].prod(axis=1)

        def phi(slots):
            """The tensor basis function of ``slots`` at every point."""
            return B[np.array(slots), points].prod(axis=1)

        psi = np.array([phi([i + 1 for i in b]) for b in bubbles])
        gram = np.array([[np.sum(w * a * b) for b in psi] for a in psi])
        for q, (jq, on) in ents:
            if jq != j or not on:
                continue
            free = [k for k in range(d) if q[k] % 2]
            lift = np.zeros(len(points))
            for i in range(j):          # the sub-entities of dimension i
                for sub_free in combinations(range(j), i):
                    for ends in product((0, 1), repeat=j - i):
                        sub, fixed = list(q), [k for k in range(j)
                                               if k not in sub_free]
                        for k, e in zip(fixed, ends):
                            sub[free[k]] += 2 * e - 1
                        for r, b in enumerate(bubble_indices(i, p, dm.family)):
                            slots = [0] * j
                            for k, e in zip(fixed, ends):
                                slots[k] = e
                            for k, x in zip(sub_free, b):
                                slots[k] = x + 1
                            lift += dvals[first[tuple(sub)] + r] * phi(slots)
            x = np.tile(_coords(mesh, q), (len(points), 1))
            for n, k in enumerate(free):
                x[:, k] += 0.5 * mesh.h * (t[points[:, n]] + 1.0)
            resid = g(*x.T) - lift
            rhs = np.array([np.sum(w * b * resid) for b in psi])
            dvals[first[q]:first[q] + len(bubbles)] = np.linalg.solve(gram, rhs)
    return dvals[dm.dirichlet_mask]


def _g3(x, y, z):
    return np.sin(1.3 * x + 0.2) * np.exp(y) * np.cos(z - 0.4) + x ** (2 / 3)


_DIRICHLET_CASES = pytest.mark.parametrize("make, g, p_list", [
    (fem.mesh_lshape, fem._lshape_solution, [1, 2, 3, 5, 10, 25]),
    (lambda: fem.mesh_uniform(3, 2), _g3, [1, 2, 4, 7]),
    # its re-entrant edges read the re-entrant vertex in their lift
    (_block_minus_corner, _g3, [1, 2, 4, 6]),
], ids=["lshape", "box3d", "nonconvex3d"])


@_DIRICHLET_CASES
@pytest.mark.parametrize("family", ["Q", "S"])
def test_dirichlet_data_gathers_match_per_entity_loop(make, g, p_list, family):
    mesh = make()
    zero = lambda *x: 0.0 * x[0]
    for p in p_list:
        dm = fem.build_dofmap(mesh, p, family)
        system = fem.assemble_poisson(mesh, dm, zero, g)
        assert np.array_equal(system.dirichlet_values,
                              _reference_dirichlet_values(mesh, dm, g)), p


@_DIRICHLET_CASES
@pytest.mark.parametrize("family", ["Q", "S"])
def test_dirichlet_data_matches_explicit_sums(make, g, p_list, family):
    mesh = make()
    zero = lambda *x: 0.0 * x[0]
    for p in p_list:
        dm = fem.build_dofmap(mesh, p, family)
        got = fem.assemble_poisson(mesh, dm, zero, g).dirichlet_values
        want = _explicit_dirichlet_values(mesh, dm, g)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), p


def test_assembly_symmetry():
    mesh = fem.mesh_uniform(2, 2)
    dm = fem.build_dofmap(mesh, 4, "S")
    system = fem.assemble_poisson(mesh, dm, lambda x, y: x * y,
                                  lambda x, y: 0.0 * x)
    assert np.max(np.abs(system.k_local - system.k_local.T)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        u, v = rng.standard_normal((2, dm.n_dof))
        assert u @ system.matvec(v) == pytest.approx(v @ system.matvec(u),
                                                     rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", ["Q", "S"])
def test_local_stiffness_3d_is_the_explicit_kronecker_sum(family):
    # the tensor stiffness comes from orthopoly.kron_laplacian; in 3D it is
    # K1 x M1 x M1 + M1 x K1 x M1 + M1 x M1 x K1 times h / 2, bit for bit
    h = 0.25
    for p in range(1, 7):
        modes = fem.build_dofmap(fem.mesh_uniform(3, 1), p, family).local_modes
        M1, K1 = fem._local_matrices_1d(p)
        full = (np.kron(np.kron(K1, M1), M1) + np.kron(np.kron(M1, K1), M1)
                + np.kron(np.kron(M1, M1), K1)) * (0.5 * h)
        at = [(m[0] * (p + 1) + m[1]) * (p + 1) + m[2] for m in modes]
        want = full[np.ix_(at, at)]
        got = fem.local_stiffness(3, p, h, modes)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), p


def test_assemble_rejects_foreign_dofmap():
    mesh_a = fem.mesh_uniform(2, 2)
    mesh_b = fem.mesh_uniform(2, 2)
    dm = fem.build_dofmap(mesh_a, 2, "Q")
    with pytest.raises(ValueError):
        fem.assemble_poisson(mesh_b, dm, lambda x, y: x, lambda x, y: 0 * x)


def _fem_sweep(family, p_list, kind="fem-sine"):
    return run_sweep({"name": "fem", "kind": kind, "family": family,
                      "p_list": p_list})


def test_sine_error_drops_with_p():
    recs = _fem_sweep("Q", [2, 3])
    e2, e3 = (r.error("h1_semi") for r in recs)
    assert e2 / e3 > 5.0


def _dense_operator(system):
    """The uncondensed global matrix, column by column through matvec."""
    n = system.dofmap.n_dof
    eye = np.eye(n)
    return np.column_stack([system.matvec(eye[i]) for i in range(n)])


def _dense_solve(system):
    """Independent dense solve of the full constrained system."""
    A = _dense_operator(system)
    free = ~system.dofmap.dirichlet_mask
    u = np.zeros(system.dofmap.n_dof)
    u[system.dirichlet_dofs] = system.dirichlet_values
    rhs = system.load[free] - A[np.ix_(free, ~free)] @ u[~free]
    u[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
    return u


def test_condensed_matches_uncondensed():
    mesh = fem.mesh_uniform(2, 2)
    dm = fem.build_dofmap(mesh, 4, "Q")
    prob = fem.fem_problem("sine2d")
    system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
    sol = fem.condense_solve(system, dm)
    u = _dense_solve(system)
    assert np.max(np.abs(u - sol.values)) < 1e-9 * max(1.0, np.max(np.abs(u)))


def test_condensed_matches_uncondensed_3d_q3():
    mesh = fem.mesh_uniform(3, 2)
    dm = fem.build_dofmap(mesh, 3, "Q")
    prob = fem.fem_problem("sine3d")
    system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
    sol = fem.condense_solve(system, dm)
    assert dm.interior_local.size and sol.residual_norm < 1e-12
    u = _dense_solve(system)
    assert np.max(np.abs(u - sol.values)) < 1e-12 * max(1.0, np.max(np.abs(u)))


def _p1_system(shift):
    """Q1 system on a 4x4 mesh (no interior modes), k_local shifted by -shift*I."""
    mesh = fem.mesh_uniform(2, 4)
    dm = fem.build_dofmap(mesh, 1, "Q")
    system = fem.assemble_poisson(mesh, dm, lambda x, y: 1.0 + 0 * x * y,
                                  lambda x, y: 0.0 * x)
    k = system.k_local - shift * np.eye(system.k_local.shape[0])
    return dm, replace(system, k_local=k)


@pytest.mark.parametrize("shift", [-0.5, 0.4, 0.7, 0.8])
def test_skeleton_certificate_counts_nonpositive_eigenvalues(shift):
    dm, system = _p1_system(shift)
    free = ~dm.dirichlet_mask
    eig = np.linalg.eigvalsh(_dense_operator(system)[np.ix_(free, free)])
    n_neg = int(np.sum(eig <= 0.0))
    assert np.min(np.abs(eig)) > 1e-3          # the count is well separated
    if n_neg == 0:
        fem.condense_solve(system, dm)
        return
    with pytest.raises(fem.IndefiniteSystemError,
                       match=rf"\b{n_neg} non-positive pivot"):
        fem.condense_solve(system, dm)


def test_negated_skeleton_reports_every_pivot():
    dm, system = _p1_system(0.0)
    system = replace(system, k_local=-system.k_local)
    n_free = int((~dm.dirichlet_mask).sum())
    with pytest.raises(fem.IndefiniteSystemError,
                       match=rf"{n_free} non-positive pivot\(s\) of {n_free}"):
        fem.condense_solve(system, dm)


def _p1_system_3d(shift):
    """Q1 system on a 4^3 mesh (27 free vertices, no interior modes),
    k_local shifted by -shift*I as in ``_p1_system``."""
    mesh = fem.mesh_uniform(3, 4)
    dm = fem.build_dofmap(mesh, 1, "Q")
    system = fem.assemble_poisson(mesh, dm, lambda x, y, z: 1.0 + 0 * x * y * z,
                                  lambda x, y, z: 0.0 * x)
    k = system.k_local - shift * np.eye(system.k_local.shape[0])
    return dm, replace(system, k_local=k)


@pytest.mark.parametrize("shift", [-0.5, 0.05, 0.08, 0.1])
def test_multifrontal_certificate_counts_nonpositive_eigenvalues(shift):
    # 0, 1, 8 and 24 non-positive eigenvalues: Haynsworth additivity over
    # the fronts must give eigvalsh's count
    dm, system = _p1_system_3d(shift)
    free = ~dm.dirichlet_mask
    assert free.sum() == 27
    eig = np.linalg.eigvalsh(_dense_operator(system)[np.ix_(free, free)])
    n_neg = int(np.sum(eig <= 0.0))
    assert np.min(np.abs(eig)) > 1e-3          # the count is well separated
    if n_neg == 0:
        fem.condense_solve(system, dm)
        return
    with pytest.raises(fem.IndefiniteSystemError,
                       match=rf"\b{n_neg} non-positive pivot\(s\) of 27"):
        fem.condense_solve(system, dm)


def test_multifrontal_negated_skeleton_reports_every_pivot():
    # every front's dpotrf fails, so every count comes from eigh
    dm, system = _p1_system_3d(0.0)
    system = replace(system, k_local=-system.k_local)
    with pytest.raises(fem.IndefiniteSystemError,
                       match=r"27 non-positive pivot\(s\) of 27"):
        fem.condense_solve(system, dm)


def test_multifrontal_singular_pivot_block_raises():
    dm, system = _p1_system_3d(0.0)
    system = replace(system, k_local=0.0 * system.k_local)
    with pytest.raises(fem.IndefiniteSystemError,
                       match=r"singular pivot block.* non-positive pivot"):
        fem.condense_solve(system, dm)


@pytest.mark.parametrize("dim", [2, 3])
def test_multifrontal_refinement_failure_raises_named_error(dim, monkeypatch):
    mesh = fem.mesh_uniform(dim, 2)
    dm = fem.build_dofmap(mesh, 3, "Q")
    prob = fem.fem_problem(f"sine{dim}d")
    system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
    factor = fem._factor_multifrontal

    class HalfSolve:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return 0.5 * self.lu.solve(b)

    monkeypatch.setattr(fem, "_factor_multifrontal",
                        lambda *args: HalfSolve(factor(*args)))
    with pytest.raises(fem.RefinementError, match="relative residual") as info:
        fem.condense_solve(system, dm)
    assert not isinstance(info.value, fem.IndefiniteSystemError)
    assert isinstance(info.value, RuntimeError)


def _two_path_condense_solve(system, dm):
    """The solve before it became one correction loop (reference): a first
    solve whose right-hand side carries the Dirichlet coupling S_loc g as its
    own term, then refinement passes that repeat the condensation."""
    il = dm.interior_local
    U, Kib, X, S_loc = fem._element_schur(system.k_local, dm)
    skel_dofs = dm.cell_dofs[:, dm.skeleton_local]
    n_skel = dm.interior_offset
    rhs = system.load[:n_skel].copy()
    if il.size:
        corr = system.load[dm.cell_dofs[:, il]] @ X
        np.add.at(rhs, skel_dofs.ravel(), -corr.ravel())
    fixed, gvals = system.dirichlet_dofs, system.dirichlet_values
    free_ids = _free_skeleton(dm, system)
    g = np.zeros(n_skel)
    g[fixed] = gvals
    coupling = g[skel_dofs] @ S_loc.T
    np.add.at(rhs, skel_dofs.ravel(), -coupling.ravel())
    lu = fem._factor_multifrontal(S_loc, dm, free_ids)
    u = np.zeros(dm.n_dof)
    u[fixed] = gvals
    u[free_ids] = lu.solve(rhs[free_ids])

    def back_substitute():
        if il.size:
            rhs = np.asfortranarray(
                (system.load[dm.cell_dofs[:, il]] - u[skel_dofs] @ Kib.T).T)
            dpotrs(U, rhs, lower=False)
            u[dm.cell_dofs[:, il]] = rhs.T

    def rel_residual():
        r = system.residual(u)
        scale = max(np.linalg.norm(system.load),
                    np.linalg.norm(system.matvec(u)), 1e-300)
        return r, np.linalg.norm(r[~dm.dirichlet_mask]) / scale

    back_substitute()
    r, rel = rel_residual()
    for _ in range(fem.REFINE_PASSES):
        if rel < fem.RESIDUAL_BOUND:
            break
        r_sk = r[:n_skel].copy()
        if il.size:
            R_i = r[dm.cell_dofs[:, il]]
            np.add.at(r_sk, skel_dofs.ravel(), -(R_i @ X).ravel())
        u[free_ids] += lu.solve(r_sk[free_ids])
        back_substitute()
        r, rel = rel_residual()
    return u, rel


def _solved(name, n, p, family):
    prob = fem.fem_problem(name, n)
    mesh = prob.make_mesh()
    dm = fem.build_dofmap(mesh, p, family)
    system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
    return prob, mesh, dm, system, fem.condense_solve(system, dm)


@pytest.mark.parametrize("family", ["Q", "S"])
@pytest.mark.parametrize("name, n, p_list", [("sine2d", 4, (1, 2, 6)),
                                             ("sine3d", 2, (2, 5))])
def test_correction_loop_equals_two_path_solve_on_sine(name, n, p_list, family):
    # the sine vanishes on the boundary, so the lift is zero, its residual
    # is the load, and the first pass is the old first solve bit for bit
    for p in p_list:
        _, _, dm, system, sol = _solved(name, n, p, family)
        u_ref, rel_ref = _two_path_condense_solve(system, dm)
        assert np.array_equal(sol.values, u_ref), (name, p)
        assert sol.residual_norm == rel_ref, (name, p)


@pytest.mark.parametrize("family", ["Q", "S"])
def test_correction_loop_matches_two_path_solve_on_lshape(family):
    # the lift moves the Dirichlet coupling into the first residual, which
    # reorders its round-off: u moves by up to 3e-14 relative over the table
    # degrees, and h1_error by at most one unit in the last place (at Q 10
    # and S 5, 10, 25; bitwise equal at the other table degrees)
    for p in (2, 5, 10):
        prob, mesh, dm, system, sol = _solved("lshape", None, p, family)
        u_ref, _ = _two_path_condense_solve(system, dm)
        assert np.linalg.norm(sol.values - u_ref) \
            <= 1e-13 * np.linalg.norm(u_ref), p
        err = fem.h1_error(sol, prob.exact_gradient,
                           graded_at=mesh.singular_corner)
        ref = fem.h1_error(replace(sol, values=u_ref), prob.exact_gradient,
                           graded_at=mesh.singular_corner)
        assert abs(err - ref) <= np.spacing(ref), p


def test_interior_solve_takes_either_layout_of_its_right_hand_side():
    # the interiors' right-hand side (ni, ne) comes out of numpy row-major
    # at 3D Q p = 9 on 4^3 cells and column-major on the smaller systems
    # above; the in-place interior solve must take it either way
    *_, sol = _solved("sine3d", 4, 9, "Q")
    assert sol.residual_norm < fem.RESIDUAL_BOUND


def test_solve_never_calls_splu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the FEM solve reached a sparse LU")

    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(spla, "spsolve", refuse)
    for name, n, p in (("sine2d", 3, 4), ("lshape", None, 4), ("sine3d", 2, 3)):
        prob = fem.fem_problem(name, n)
        mesh = prob.make_mesh()
        dm = fem.build_dofmap(mesh, p, "Q")
        system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
        assert fem.condense_solve(system, dm).residual_norm < 1e-12, name


def _free_skeleton(dm, system):
    free = np.ones(dm.interior_offset, dtype=bool)
    free[system.dirichlet_dofs] = False
    return np.nonzero(free)[0]


@pytest.mark.parametrize("family", ["Q", "S"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, "lshape"])
def test_multifrontal_matches_sparse_reference(family, n):
    # the n^3 and n^2 meshes, or the L-shape: n = 3 puts the bisection planes
    # off-centre, n = 1 has no free skeleton, the L-shape's bounding box
    # holds a quarter without cells
    meshes = ([fem.mesh_lshape()] if n == "lshape" else
              [fem.mesh_uniform(d, n) for d in (3, 2)])
    rng = np.random.default_rng(0 if n == "lshape" else n)
    zero = lambda *xs: 0.0 * xs[0]
    for mesh, p in product(meshes, range(1, 6)):
        dm = fem.build_dofmap(mesh, p, family)
        system = fem.assemble_poisson(mesh, dm, zero, zero)
        S_loc = fem._element_schur(system.k_local, dm)[3]
        free_ids = _free_skeleton(dm, system)
        lu = fem._factor_multifrontal(S_loc, dm, free_ids)
        b = rng.standard_normal(free_ids.size)
        x = lu.solve(b)
        if n == 1:
            assert free_ids.size == 0 and x.size == 0 and lu.nnz == 0
            continue
        ref = spla.spsolve(free_skeleton_matrix(S_loc, dm, free_ids), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), \
            (mesh.dim, p)


def _skeleton_block(name, n, p, family):
    """S_loc, the dofmap and the free skeleton ids of a built-in problem."""
    prob = fem.fem_problem(name, n)
    mesh = prob.make_mesh()
    dm = fem.build_dofmap(mesh, p, family)
    system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
    return (fem._element_schur(system.k_local, dm)[3], dm,
            _free_skeleton(dm, system))


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("n_elements", [0, 1, 7])
def test_front_bitwise_equal_to_add_at_scatter(n_elements):
    # the whole m x m square, both triangles, as np.add.at scatters every
    # free pair element by element; a pair with a Dirichlet (-1) rank adds
    # nowhere
    rng = np.random.default_rng(n_elements)
    n, m, nl = 40, 12, 6
    idx = np.sort(rng.choice(n, m, replace=False))
    where = np.zeros(n, dtype=np.int64)
    where[idx] = np.arange(m)
    S_loc = rng.standard_normal((nl, nl))
    R = rng.choice(np.append(idx, -1), (n_elements, nl), replace=True)
    R[:, 0] = -1
    R[:1, 1:] = rng.choice(idx, nl - 1, replace=False)  # one with every pair
    F = fem._front(np.tile(S_loc.ravel(), max(n_elements, 1)), where, R, m)
    want = np.zeros((m, m))
    pos, free = where[R], R >= 0
    for e in range(n_elements):
        rows = pos[e][free[e]]
        np.add.at(want, (rows[:, None], rows), S_loc[np.ix_(free[e], free[e])])
    assert F.shape == (m, m) and F.dtype == np.float64 and F.flags.f_contiguous
    assert F.tobytes(order="F") == want.tobytes(order="F")


@pytest.mark.parametrize("loc", [
    [2, 3, 4, 5, 8],        # one run across the pivot/update boundary at k = 4
    [0, 2, 5, 7, 9],        # runs of one row each
    list(range(10)),        # one run over every row of the front
    [1, 3, 4, 5, 6, 9]])
def test_extend_add_bitwise_equal_to_add_at_scatter(loc):
    # every pair (i, j) whose run of rows is at or below j's is added as
    # np.add.at adds it; pairs in a run above lie above the diagonal and are
    # skipped, so the lower triangle is a full scatter's
    rng = np.random.default_rng(len(loc))
    m, loc = 10, np.array(loc)
    F = np.asfortranarray(rng.standard_normal((m, m)))
    U = rng.standard_normal((loc.size, loc.size))
    run = np.cumsum(np.diff(loc, prepend=-2) != 1)
    i, j = np.nonzero(run[:, None] >= run[None, :])
    want, full = F.copy(), F.copy()
    np.add.at(want, (loc[i], loc[j]), U[i, j])
    np.add.at(full, (loc[:, None], loc), U)
    fem._extend_add(F, U, loc)
    assert F.tobytes() == want.tobytes()
    # the lower triangle holds all a factorization of k pivots reads:
    # F[:k, :k] and F[k:, k:] through their lower triangles, and F[k:, :k]
    assert np.tril(F).tobytes() == np.tril(full).tobytes()


# LEAF_DOFS 0 cuts every region down to single cells, as the dissection did
# before leaf fronts: the deepest trees, with the most fronts and extend-adds
LEAVES = [0, fem.LEAF_DOFS]


@pytest.mark.parametrize("family", ["Q", "S"])
@pytest.mark.parametrize("name, n, p", [
    ("sine3d", 4, 2), ("sine3d", 4, 5), ("sine3d", 4, 8),
    ("sine3d", 3, 4),           # off-centre bisection planes
    ("sine2d", 8, 6), ("lshape", None, 5),
    ("sine3d", 1, 3)])          # one cell: no free skeleton dof
def test_fronts_bitwise_equal_to_add_at_reference(name, n, p, family,
                                                  monkeypatch):
    # the square front's bincount and block-slice fills must add the same
    # terms in the same order as np.add.at did: ordering and factors equal
    # bit for bit,
    # on the deepest trees and on the default's leaf fronts
    args = _skeleton_block(name, n, p, family)
    for leaf in LEAVES:
        monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
        lu = fem._factor_multifrontal(*args)
        ref = factor_multifrontal_add_at(*args)
        assert _same_bits(lu.perm, ref.perm), leaf
        assert len(lu.fronts) == len(ref.fronts) and lu.nnz == ref.nnz, leaf
        for front, want in zip(lu.fronts, ref.fronts):
            assert front[:2] == want[:2], leaf
            assert all(_same_bits(a, b) for a, b in zip(front[2:], want[2:]))


def test_eigh_fallback_bitwise_equal_to_add_at_reference(monkeypatch):
    # S_loc - 3e-5 I: 11 of the pivot blocks (of 63 at LEAF_DOFS 0, of 15 at
    # the default) fail dpotrf, and the fronts above them take the eigh
    # path's full update matrices.  Every LAPACK call must see the
    # reference's blocks (a pivot block through its lower triangle, the only
    # part read) and return its bits, and the reported count must be the
    # reference's.  dpotrf and dtrsm work in place, so the operands (the
    # first through its lower triangle) are read before the call and again
    # after it
    S_loc, dm, free_ids = _skeleton_block("sine3d", 4, 4, "Q")
    S_loc = S_loc - 3e-5 * np.eye(S_loc.shape[0])

    def bits(x):
        if not isinstance(x, np.ndarray):
            return x
        return x.dtype.str, x.shape, x.tobytes()

    def operands(args):
        return [bits(np.tril(args[0]))] + [bits(a) for a in args[1:]]

    calls = {fem: [], skeleton_reference: []}
    for module, log in calls.items():
        for name in ("dpotrf", "dtrsm", "eigh"):
            def record(*args, _f=getattr(module, name), _name=name, _log=log,
                       **kwargs):
                seen = operands(args)
                out = _f(*args, **kwargs)
                _log.append((_name, *seen, *operands(args), *map(
                    bits, out if isinstance(out, tuple) else [out])))
                return out
            monkeypatch.setattr(module, name, record)
    for leaf, n_fronts in zip(LEAVES, (63, 15)):
        monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
        messages = []
        for factor in (fem._factor_multifrontal, factor_multifrontal_add_at):
            with pytest.raises(fem.IndefiniteSystemError) as info:
                factor(S_loc, dm, free_ids)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "17 non-positive pivot(s)" in messages[0]
        names = [c[0] for c in calls[fem]]
        assert names.count("eigh") == 11 and names.count("dpotrf") == n_fronts
        assert calls[fem] == calls[skeleton_reference]
        for log in calls.values():
            log.clear()


@pytest.mark.parametrize("name, n, p, shift", [("sine3d", 4, 4, 3e-5),
                                               ("sine2d", 8, 4, 0.05)])
def test_indefinite_count_does_not_depend_on_leaf_size(name, n, p, shift,
                                                       monkeypatch):
    # Haynsworth additivity: however the skeleton is cut into fronts, the
    # non-positive pivots the fronts report add up to the non-positive
    # eigenvalues of the assembled free skeleton
    S_loc, dm, free_ids = _skeleton_block(name, n, p, "Q")
    S_loc = S_loc - shift * np.eye(S_loc.shape[0])
    eig = np.linalg.eigvalsh(free_skeleton_matrix(S_loc, dm, free_ids)
                             .toarray())
    n_neg = int(np.count_nonzero(eig <= 0.0))
    assert n_neg > 1 and np.min(np.abs(eig)) > 1e-6
    n_fronts = set()
    for leaf in (0, 32, 64, fem.LEAF_DOFS, free_ids.size):
        monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
        n_fronts.add(len(fem._dissect_skeleton(dm, free_ids)[0]))
        with pytest.raises(fem.IndefiniteSystemError,
                           match=rf"\b{n_neg} non-positive pivot\(s\) of "
                                 rf"{free_ids.size}$"):
            fem._factor_multifrontal(S_loc, dm, free_ids)
    assert len(n_fronts) >= 4 and 1 in n_fronts


@pytest.mark.parametrize("leaf", [32, fem.LEAF_DOFS])
@pytest.mark.parametrize("name, n, p, family", [
    ("sine2d", 8, 2, "Q"), ("sine2d", 8, 12, "S"), ("lshape", None, 25, "Q"),
    ("sine3d", 4, 3, "Q"), ("sine3d", 4, 8, "S")])
def test_leaf_fronts_hold_at_most_leaf_dofs(name, n, p, family, leaf,
                                            monkeypatch):
    # a region is a separator's subtree: every region that was cut held
    # more than LEAF_DOFS free dofs, and every leaf front is one uncut
    # region of at most LEAF_DOFS, its dofs in free-position order
    monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
    _, dm, free_ids = _skeleton_block(name, n, p, family)
    seps, parent = fem._dissect_skeleton(dm, free_ids)
    region = np.array([s.size for s in seps])
    for i in range(len(seps)):         # postorder: children before parents
        if parent[i] >= 0:
            region[parent[i]] += region[i]
    has_kids = np.zeros(len(seps), dtype=bool)
    has_kids[parent[parent >= 0]] = True
    leaves = ~has_kids
    assert np.all(region[has_kids] > leaf)
    assert np.all(region[leaves] <= leaf)
    assert all(np.all(np.diff(seps[i]) > 0) for i in np.flatnonzero(leaves))
    assert region[-1] == free_ids.size and has_kids.any()


@pytest.mark.parametrize("leaf", LEAVES + [10 ** 9])
def test_one_cell_region_with_free_dofs_raises(leaf, monkeypatch):
    # a one-cell region holds no free skeleton dof, so one that does (here
    # every skeleton dof of a single cell taken as free) is an error, also
    # where the region is small enough to be a leaf front
    monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
    dm = fem.build_dofmap(fem.mesh_uniform(2, 1), 2, "Q")
    with pytest.raises(ValueError, match="one-cell region"):
        fem._dissect_skeleton(dm, np.arange(dm.interior_offset))


@pytest.mark.parametrize("family, p", [("Q", 1), ("Q", 3), ("S", 5)])
def test_dissection_matches_median_reference(family, p, monkeypatch):
    # the cut plane from integer arithmetic on twice the median must be the
    # one np.median and np.argmin pick, ties to the lower plane included,
    # and both must stop at the same leaf regions
    meshes = [fem.mesh_lshape()] + [fem.mesh_uniform(d, n)
                                    for d in (2, 3) for n in range(1, 7)
                                    if d == 2 or n <= 5]
    zero = lambda *xs: 0.0 * xs[0]
    for mesh, leaf in product(meshes, LEAVES):
        monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
        dm = fem.build_dofmap(mesh, p, family)
        free_ids = _free_skeleton(dm, fem.assemble_poisson(mesh, dm, zero, zero))
        seps, parent = fem._dissect_skeleton(dm, free_ids)
        want, want_parent = skeleton_reference.dissect_skeleton_median(
            dm, free_ids)
        assert np.array_equal(parent, want_parent), (mesh.cells.max(axis=0),
                                                     leaf)
        assert len(seps) == len(want) and all(
            np.array_equal(a, b) for a, b in zip(seps, want))


@pytest.mark.parametrize("family, p", [("Q", 3), ("S", 5)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dissection_keeps_each_element_on_one_root_path(family, p, n,
                                                        monkeypatch):
    """Every free dof is on exactly one separator, and the separators an
    element touches lie on one path to the root: no element has free dofs
    in two sibling subtrees."""
    mesh = fem.mesh_uniform(3, n)
    dm = fem.build_dofmap(mesh, p, family)
    system = fem.assemble_poisson(mesh, dm, lambda x, y, z: 0.0 * x,
                                  lambda x, y, z: 0.0 * x)
    free_ids = _free_skeleton(dm, system)
    for leaf in LEAVES:
        monkeypatch.setattr(fem, "LEAF_DOFS", leaf)
        seps, parent = fem._dissect_skeleton(dm, free_ids)
        assert np.array_equal(np.sort(np.concatenate(seps)),
                              np.arange(free_ids.size))
        assert list(parent).count(-1) == 1
        assert all(parent[i] > i for i in range(len(seps)) if parent[i] >= 0)
        node = -np.ones(dm.interior_offset, dtype=np.int64)
        for i, sep in enumerate(seps):
            node[free_ids[sep]] = i
        for dofs in dm.cell_dofs[:, dm.skeleton_local]:
            touched = set(node[dofs]) - {-1}
            if not touched:
                continue
            path, i = set(), min(touched)      # postorder: the deepest first
            while i >= 0:
                path.add(i)
                i = parent[i]
            assert touched <= path


def test_fem_records_carry_skeleton_counts():
    # both skeletons hold at most LEAF_DOFS free dofs, so each is one leaf
    # front of n free dofs, which stores its lower triangle, n (n + 1) / 2
    # entries: 19 * 20 / 2 = 190 in 3D, 5 * 6 / 2 = 15 in 2D (the centre
    # vertex, the four edges around it)
    assert fem.LEAF_DOFS >= 19
    for sw, free, nnz in (
            ({"dim": 3, "n": 2, "p_list": [2]}, 19, 190),
            ({"dim": 2, "n": 2, "p_list": [2]}, 5, 15)):
        rec, = run_sweep({"name": "fem", "kind": "fem-sine", "family": "Q",
                          **sw})
        assert rec.extra["skeleton_free"] == free
        assert type(rec.extra["factor_nnz"]) is int
        assert rec.extra["factor_nnz"] == nnz
        back, = harness.records_from_csv(harness.records_to_csv([rec]))
        assert back.extra["skeleton_free"] == free
        assert back.extra["factor_nnz"] == rec.extra["factor_nnz"]


def test_single_element_harmonic_exactness():
    mesh = _reference_element(2)
    dm = fem.build_dofmap(mesh, 4, "Q")
    g = lambda x, y: x * y + x ** 4 - 6 * x ** 2 * y ** 2 + y ** 4
    grad = lambda x, y: (y + 4 * x ** 3 - 12 * x * y ** 2,
                         x - 12 * x ** 2 * y + 4 * y ** 3)
    system = fem.assemble_poisson(mesh, dm, lambda x, y: 0.0 * x * y, g)
    sol = fem.condense_solve(system, dm)
    assert fem.h1_error(sol, grad) < 1e-10


def test_energy_monotone_in_p(lshape):
    energies = {"Q": [], "S": []}
    for fam in ("Q", "S"):
        for p in (1, 2, 3, 4, 5, 6):
            dm = fem.build_dofmap(lshape, p, fam)
            system = fem.assemble_poisson(lshape, dm, lambda x, y: 0.0 * x * y,
                                          fem._lshape_solution)
            sol = fem.condense_solve(system, dm)
            energies[fam].append(0.5 * float(sol.values @ system.matvec(sol.values)))
    # nested Q spaces: discrete energy decreases toward the exact 0.5|u|^2
    for a, b in zip(energies["Q"], energies["Q"][1:]):
        assert b <= a * (1 + 1e-9)
    assert energies["Q"][-1] >= 0.5 * LSHAPE_U_H1_SQ
    # recorded for S (spaces nested as well, boundary data varies with p)
    for a, b in zip(energies["S"], energies["S"][1:]):
        assert b <= a * (1 + 1e-6)


def test_galerkin_orthogonality(lshape_q3):
    sol, system = lshape_q3
    assert sol.residual_norm < 1e-9
    r = system.residual(sol.values)
    free = ~sol.dofmap.dirichlet_mask
    scale = max(np.max(np.abs(system.load)), np.max(np.abs(system.matvec(sol.values))))
    assert np.max(np.abs(r[free])) < 1e-9 * scale


def test_h1_error_quadrature_oracle(lshape):
    """The graded element quadrature reproduces the closed-form polar value
    of |u|_{H1}^2 over the L-shape to near machine precision."""
    dm = fem.build_dofmap(lshape, 1, "Q")
    zero = fem.FemSolution(dofmap=dm, values=np.zeros(dm.n_dof),
                           residual_norm=0.0)
    val = h1_error_one_batch(zero, fem._lshape_gradient,
                             graded_at=lshape.singular_corner, quad_order=24)
    assert val ** 2 == pytest.approx(LSHAPE_U_H1_SQ, rel=1e-12)


def test_h1_error_interpolant_is_zero():
    # patch-test solution equals the exact bilinear g: error vanishes
    mesh = fem.mesh_uniform(2, 2)
    dm = fem.build_dofmap(mesh, 1, "Q")
    g = lambda x, y: 2.0 * x - y + 0.25 * x * y
    grad = lambda x, y: (2.0 + 0.25 * y, -1.0 + 0.25 * x)
    system = fem.assemble_poisson(mesh, dm, lambda x, y: 0.0 * x * y, g)
    sol = fem.condense_solve(system, dm)
    assert fem.h1_error(sol, grad) < 1e-10


def test_h1_error_graded_layer_doubling(lshape):
    # graded_rule keeps 14 layers at sigma = 0.15, so 7 against 14 is the
    # last doubling that changes the rule; more layers give the same error
    dm = fem.build_dofmap(lshape, 10, "Q")
    system = fem.assemble_poisson(lshape, dm, lambda x, y: 0.0 * x * y,
                                  fem._lshape_solution)
    sol = fem.condense_solve(system, dm)
    e = {n: fem.h1_error(sol, fem._lshape_gradient,
                         graded_at=lshape.singular_corner, layers=n)
         for n in (7, 14, 20, 40)}
    assert abs(e[7] - e[14]) / e[14] < 1e-3
    assert e[14] == e[20] == e[40]


@pytest.mark.parametrize("family", ["S", "Q"])
def test_corner_pieces_match_the_tensorized_reference(lshape, family):
    # the 18 Table-1 solutions: the corner-piece rule against the tensor
    # product of composite graded rules that h1_error used before it
    prob = fem.fem_problem("lshape")
    for p in TABLE1["sweeps"][0]["p_list"]:
        dm = fem.build_dofmap(lshape, p, family)
        sol = fem.condense_solve(fem.assemble_poisson(
            lshape, dm, prob.source, prob.dirichlet), dm)
        got = fem.h1_error(sol, prob.exact_gradient,
                           graded_at=lshape.singular_corner)
        ref = h1_error_tensorized(sol, prob.exact_gradient,
                                  graded_at=lshape.singular_corner)
        assert abs(got - ref) <= 1e-13 * ref, p


@pytest.mark.parametrize("family", ["S", "Q"])
@pytest.mark.parametrize("name, n, p_list", [("sine2d", 8, (2, 6, 12)),
                                             ("sine3d", 2, (2, 5, 8))])
def test_plain_gauss_errors_are_bitwise_the_reference(name, n, p_list, family):
    # no corner: every group runs the reference's arithmetic
    for p in p_list:
        prob, _, _, _, sol = _solved(name, n, p, family)
        assert fem.h1_error(sol, prob.exact_gradient) \
            == h1_error_tensorized(sol, prob.exact_gradient), p


@pytest.mark.parametrize("name, n, p, family", [
    *[("lshape", None, p, f) for f in ("Q", "S") for p in (1, 5, 25)],
    ("sine2d", 8, 12, "Q"), ("sine3d", 4, 8, "Q"), ("sine3d", 4, 8, "S")])
def test_chunked_h1_error_is_bitwise_the_one_batch_loop(name, n, p, family):
    # the chunks fill one buffer per rule, weighted and summed once: the
    # same bits as evaluating each rule's whole grid at once
    prob, mesh, _, _, sol = _solved(name, n, p, family)
    got = fem.h1_error(sol, prob.exact_gradient,
                       graded_at=mesh.singular_corner)
    ref = h1_error_one_batch(sol, prob.exact_gradient,
                             graded_at=mesh.singular_corner)
    assert np.array_equal(np.float64(got).view(np.int64),
                          np.float64(ref).view(np.int64))


def test_h1_error_chunks_hold_at_most_the_bound(monkeypatch):
    # the L-shape at Q p = 25: each corner element's 43 pieces of 50 x 50
    # points go in 4 chunks of at most 13 pieces, the 9 plain elements in one
    bound, sizes = 2 ** 15, []

    def recorder(coeffs, vals, ders, gradient, half):
        out = gradient_error_sq(coeffs, vals, ders, gradient, half)
        sizes.append(out.size)
        return out

    prob, mesh, _, _, sol = _solved("lshape", None, 25, "Q")
    monkeypatch.setattr(fem, "gradient_error_sq", recorder)
    fem.h1_error(sol, prob.exact_gradient, graded_at=mesh.singular_corner)
    assert max(sizes) <= bound
    assert fem.ERROR_CHUNK == bound
    assert sorted(sizes) == [2500 * 4] * 3 + [9 * 2500] + [2500 * 13] * 9
    assert sum(sizes) == 3 * 43 * 2500 + 9 * 2500


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["Q", "S"])
def test_dense_blocks_are_the_one_copy_forms(dim, family, monkeypatch):
    # local_stiffness scales in place and _element_schur gathers K_ii
    # straight into F order: bit for bit the old expressions
    h, gathered = 0.25, []

    def recorder(a, lower):
        gathered.append((a.flags.f_contiguous, a.copy(order="F")))
        return dpotrf(a, lower=lower)

    monkeypatch.setattr(fem, "dpotrf", recorder)
    for p in range(1, 9 if dim == 2 else 7):
        dm = fem.build_dofmap(fem.mesh_uniform(dim, 2), p, family)
        full = kron_laplacian(*fem._local_matrices_1d(p), dim) \
            * (0.5 * h) ** (dim - 2)
        flat = flat_positions(dm.local_modes, p)
        k_local = fem.local_stiffness(dim, p, h, dm.local_modes)
        assert np.array_equal(k_local.view(np.int64),
                              full[np.ix_(flat, flat)].view(np.int64)), p
        want = np.asfortranarray(k_local[np.ix_(dm.interior_local,
                                                dm.interior_local)])
        U = fem._element_schur(k_local, dm)[0]
        f_ordered, K_ii = gathered.pop()
        assert f_ordered and U.flags.f_contiguous, p
        assert np.array_equal(K_ii.view(np.int64), want.view(np.int64)), p
        assert dpotrf(want, lower=False) == 0, p
        assert np.array_equal(U.view(np.int64), want.view(np.int64)), p


def _polar_lshape_gradient(x, y):
    # the gradient through the polar chain rule, as a reference
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    r = np.maximum(np.hypot(x, y), 1e-20)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    ur = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.sin(2.0 * phi / 3.0)
    ut = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.cos(2.0 * phi / 3.0)
    c, s = np.cos(phi), np.sin(phi)
    return (ur * c - ut * s, ur * s + ut * c)


def test_lshape_gradient_matches_polar_chain_rule_on_graded_nodes(lshape):
    # the nodes h1_error integrates the three corner elements on at p = 25:
    # the corner pieces, whose per-axis nodes carry a piece axis
    layers, order = fem.error_quadrature(25)
    groups = [(elems, nodes) for elems, nodes, _ in fem._element_rules(
        lshape, lshape.singular_corner, fem.GRADED_SIGMA_DEFAULT, layers,
        order) if nodes[0].ndim == 2]
    assert sum(elems.size for elems, _ in groups) == 3
    for elems, nodes in groups:
        grids = element_grids(lshape.elem_lower[elems], 0.5 * lshape.h, nodes)
        ref = _polar_lshape_gradient(*grids)
        got = fem._lshape_gradient(*grids)
        size = np.hypot(*ref)
        for k in range(2):
            assert got[k].shape == ref[k].shape
            assert np.all(np.abs(got[k] - ref[k]) <= 4e-15 * size)


@pytest.mark.parametrize("x,y", [
    (0.5, 0.3), (0.1, 0.9), (0.8, 0.02),          # x > 0, y > 0
    (-0.4, 0.6), (-0.9, 0.1), (-0.05, 0.7),       # x < 0, y > 0
    (-0.5, -0.5), (-0.2, -0.8), (-0.7, -0.03)])   # x < 0, y < 0
def test_lshape_gradient_matches_central_differences(x, y):
    h = 1e-6
    u = fem._lshape_solution
    fd = ((u(x + h, y) - u(x - h, y)) / (2 * h),
          (u(x, y + h) - u(x, y - h)) / (2 * h))
    got = fem._lshape_gradient(x, y)
    for k in range(2):
        assert got[k] == pytest.approx(fd[k], rel=1e-7, abs=1e-8)


def test_lshape_angle_matches_the_branch_on_the_axes():
    # the four axis rays and the origin, with each signed zero
    z = (0.0, -0.0)
    pts = [(1.0, s) for s in z] + [(s, 1.0) for s in z] + \
        [(-1.0, s) for s in z] + [(s, -1.0) for s in z] + \
        [(a, b) for a in z for b in z]
    x, y = np.array(pts).T
    phi = np.arctan2(y, x)
    np.testing.assert_array_equal(fem._lshape_angle(x, y),
                                  np.where(phi < 0, phi + 2 * np.pi, phi))
    # the Dirichlet data is exactly zero on the positive x-axis
    assert np.all(fem._lshape_solution(np.array([0.5, 0.5]),
                                       np.array([0.0, -0.0])) == 0.0)


def test_sine_error_matches_overkill_quadrature():
    recs = _fem_sweep("Q", [4])
    mesh = fem.mesh_uniform(2, 8)
    prob = fem.fem_problem("sine2d")
    dm = fem.build_dofmap(mesh, 4, "Q")
    system = fem.assemble_poisson(mesh, dm, prob.source, prob.dirichlet)
    sol = fem.condense_solve(system, dm)
    e_std = fem.h1_error(sol, prob.exact_gradient)
    e_over = h1_error_one_batch(sol, prob.exact_gradient,
                                quad_order=3 * 4 + 6)
    assert e_std == pytest.approx(e_over, rel=1e-8)
    assert e_std == pytest.approx(recs[0].error("h1_semi"), rel=1e-12)


def test_s_error_dominates_q_and_costs_less():
    recs_q = _fem_sweep("Q", [3])
    recs_s = _fem_sweep("S", [3])
    assert recs_s[0].error("h1_semi") >= recs_q[0].error("h1_semi")
    assert recs_s[0].dof < recs_q[0].dof


def test_sweep_continues_after_failure(lshape):
    # p = 0 never passes config validation; driven directly, build_dofmap's
    # ValueError is a caller's bug, not a failed degree, and propagates
    kind = harness.KINDS["fem-lshape"]
    method, dim, _, solve_one = kind.solver({"kind": "fem-lshape",
                                             "family": "S", "p_list": [0, 2]})
    solver = harness.Solver(method, dim, kind.error_keys, solve_one)
    with pytest.raises(ValueError, match="p >= 1"):
        harness.sweep(solver, [0, 2])

    # a named solver failure is recorded, and the sweep goes on
    def refine_fails_at_1(p):
        if p == 1:
            raise fem.RefinementError("stub")
        return solve_one(p)

    recs = harness.sweep(solver._replace(solve_one=refine_fails_at_1), [1, 2])
    assert np.isnan(recs[0].error("h1_semi")) and recs[0].dof == -1
    assert recs[0].extra["error_class"] == "RefinementError"
    assert "error_message" in recs[0].extra
    assert np.isfinite(recs[1].error("h1_semi"))


def test_lshape_table_rows_small_p(lshape):
    """Fully resolved errors at the p=1 and S p=5 table rows; the systematic
    offset of the printed table beyond these is established in the ledger and
    exercised by the acceptance suite."""
    recs_s = _fem_sweep("S", [1, 2, 3, 4, 5], "fem-lshape")
    recs_q = _fem_sweep("Q", [1], "fem-lshape")
    e1s = recs_s[0].error("h1_semi")
    e1q = recs_q[0].error("h1_semi")
    assert e1s == pytest.approx(e1q, rel=1e-12)       # S_1 = Q_1
    assert e1s == pytest.approx(2.09e-1, rel=0.02)
    e5 = recs_s[4].error("h1_semi")
    assert e5 == pytest.approx(6.93e-2, rel=0.02)
    assert recs_s[4].extra["p_rate"] == pytest.approx(1.1703, abs=0.03)


@pytest.mark.parametrize("dim,p", [(2, 2), (2, 3), (2, 4), (2, 5),
                                   (3, 2), (3, 3), (3, 6)])
def test_serendipity_space_spans_superlinear_monomials(dim, p):
    """The hierarchical S_p basis spans exactly the monomials of superlinear
    degree <= p (total degree counting only variables that enter
    nonlinearly) - an independent characterization of the serendipity space
    that pins both the 2D monomial view and the 3D entity layout."""
    from itertools import product as iproduct
    mesh = _reference_element(dim)
    dm = fem.build_dofmap(mesh, p, "S")
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, size=(3 * dm.n_dof, dim))
    tabs = [fem.basis1d_values(p, pts[:, k]) for k in range(dim)]
    B = np.ones((dm.n_dof, pts.shape[0]))
    for lm, m in enumerate(dm.local_modes):
        row = np.ones(pts.shape[0])
        for k in range(dim):
            row = row * tabs[k][m[k]]
        B[lm] = row
    monos = []
    for expo in iproduct(range(p + 1), repeat=dim):
        superlinear = sum(e for e in expo if e >= 2)
        if superlinear <= p:
            monos.append(np.prod(pts ** np.array(expo), axis=1))
    M = np.array(monos)
    assert len(monos) == dm.n_dof
    tol_rank = lambda A: np.linalg.matrix_rank(A, tol=1e-8)
    assert tol_rank(B) == dm.n_dof
    assert tol_rank(M) == dm.n_dof
    assert tol_rank(np.vstack([B, M])) == dm.n_dof


def test_lshape_rates_climb_toward_four_thirds(lshape):
    recs = _fem_sweep("Q", [10, 12, 14, 16, 18, 20], "fem-lshape")
    rates = [r.extra["p_rate"] for r in recs[1:]]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 1.25
    assert all(r < 4.0 / 3.0 for r in rates)
