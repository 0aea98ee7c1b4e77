"""Reference error quadrature of the FEM solutions, for tests only.

``h1_error_tensorized`` is ``fem.h1_error`` as it was before the elements at
the graded corner were integrated on corner pieces: each such element on the
tensor product of composite 1D graded rules, (layers + 1) * order nodes per
axis.  The composite rules come from the breakpoints of the 1D
``graded_rule``, so both quadratures clamp their layers in one place.  The
plain-Gauss elements are integrated as ``fem.h1_error`` integrates them, so
their errors must agree bit for bit; the corner-piece errors must agree to
round-off.

``h1_error_one_batch`` is ``fem.h1_error`` as it was before its chunks:
each group of elements sharing one rule is one batch, its exact gradient
and squared error evaluated on the whole group's grid at once.  The chunked
errors must agree with it bit for bit.

``TABLE1`` is the paper's Table-1 benchmark as a config of ``hpexp run``:
the L-shape sweeps of both families at its nine degrees.
"""

from functools import reduce

import numpy as np

from hpexp import fem
from hpexp.indexsets import flat_positions
from hpexp.orthopoly import (apply_axes, element_grids, gauss_rule,
                             gradient_error_sq, graded_rule)

TABLE1 = {"sweeps": [
    {"name": f"table1_fem_{family.lower()}", "kind": "fem-lshape",
     "family": family, "p_list": [1, 2, 3, 4, 5, 10, 15, 20, 25]}
    for family in ("S", "Q")]}


def composite_rule(sigma, layers, order, end):
    """Flattened nodes and weights of the 1D composite rule graded toward
    ``end`` (-1 or +1), its cells from left to right."""
    pts = graded_rule(sigma, layers, order, (end,)).breakpoints[0]
    base = gauss_rule(order)
    xs, ws = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base.nodes)
        ws.append(half * base.weights)
    return np.concatenate(xs), np.concatenate(ws)


def element_rules_tensorized(mesh, graded_at, sigma, layers, order):
    """(element indices, per-axis (nodes, weights)) for every group of
    elements sharing one per-axis rule tuple."""
    lo = mesh.elem_lower
    ends = np.zeros(lo.shape, dtype=int)
    if graded_at is not None:
        pt = np.asarray(graded_at, dtype=float)
        at_lo = np.abs(pt - lo) < 1e-12
        at_hi = np.abs(pt - (lo + mesh.h)) < 1e-12
        vertex = np.all(at_lo | at_hi, axis=1)[:, None]
        ends = np.where(vertex & at_lo, -1, np.where(vertex & at_hi, 1, 0))
    keys, group = np.unique(ends, axis=0, return_inverse=True)
    g = gauss_rule(order)
    return [(np.nonzero(group.ravel() == i)[0],
             [(g.nodes, g.weights) if end == 0
              else composite_rule(sigma, layers, order, int(end))
              for end in key])
            for i, key in enumerate(keys)]


def h1_error_tensorized(sol, exact_gradient, graded_at=None,
                        sigma=fem.GRADED_SIGMA_DEFAULT, layers=None):
    """|u - u_h|_{H1} with the graded elements on tensorized composite rules."""
    dofmap = sol.dofmap
    mesh, p, d = dofmap.mesh, dofmap.p, dofmap.mesh.dim
    ne, a = mesh.n_elements, 0.5 * mesh.h
    layers, order = fem.error_quadrature(p, layers, sigma)
    coeffs = np.zeros((ne, (p + 1) ** d))
    coeffs[:, flat_positions(dofmap.local_modes, p)] = \
        sol.values[dofmap.cell_dofs]
    coeffs = coeffs.reshape((ne,) + (p + 1,) * d)
    total = 0.0
    for elems, rules in element_rules_tensorized(mesh, graded_at, sigma,
                                                 layers, order):
        vals = [fem.basis1d_values(p, x).T for x, _ in rules]
        ders = [fem.basis1d_derivs(p, x).T for x, _ in rules]
        gex = exact_gradient(*element_grids(mesh.elem_lower[elems], a,
                                            [x for x, _ in rules]))
        for k in range(d):
            e = gex[k] - apply_axes(coeffs[elems], [
                ders[j] if j == k else vals[j] for j in range(d)]) / a
            np.square(e, out=e)
            if k:
                err_sq += e
            else:
                err_sq = e
        err_sq *= reduce(np.multiply.outer, [w for _, w in rules])
        total += float(np.sum(err_sq))
    return float(np.sqrt(total * a ** d))


def h1_error_one_batch(sol, exact_gradient, graded_at=None,
                       sigma=fem.GRADED_SIGMA_DEFAULT, layers=None,
                       quad_order=None):
    """|u - u_h|_{H1} on the rules of ``fem.h1_error``, one batch per rule;
    ``quad_order`` Gauss points per axis replace ``fem.error_quadrature``'s
    if given, an overkill rule for the tests that check the default."""
    dofmap = sol.dofmap
    mesh, p, d = dofmap.mesh, dofmap.p, dofmap.mesh.dim
    ne, a = mesh.n_elements, 0.5 * mesh.h
    layers, order = fem.error_quadrature(p, layers, sigma)
    order = quad_order or order
    coeffs = np.zeros((ne, (p + 1) ** d))
    coeffs[:, flat_positions(dofmap.local_modes, p)] = \
        sol.values[dofmap.cell_dofs]
    coeffs = coeffs.reshape((ne,) + (p + 1,) * d)
    total = 0.0
    for elems, nodes, weights in fem._element_rules(mesh, graded_at, sigma,
                                                    layers, order):
        pieces = nodes[0].shape[:-1]
        vals = [fem.basis1d_values(p, x.ravel()).T.reshape(x.shape + (p + 1,))
                for x in nodes]
        ders = [fem.basis1d_derivs(p, x.ravel()).T.reshape(x.shape + (p + 1,))
                for x in nodes]
        c = coeffs[elems].reshape((elems.size,) + (1,) * len(pieces)
                                  + (p + 1,) * d)
        gex = exact_gradient(*element_grids(mesh.elem_lower[elems], a, nodes))
        err_sq = gradient_error_sq(c, vals, ders, gex, a)
        err_sq *= reduce(np.multiply, [
            w.reshape(pieces + (1,) * k + (-1,) + (1,) * (d - 1 - k))
            for k, w in enumerate(weights)])
        total += float(np.sum(err_sq))
    return float(np.sqrt(total * a ** d))
