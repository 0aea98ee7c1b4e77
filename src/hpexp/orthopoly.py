"""One-dimensional Legendre kernels, their antiderivatives, and Gauss quadrature.

Everything on this module works on the reference interval [-1, 1].  The
antiderivative functions ``psi_j`` (with ``psi_j(x) = int_{-1}^x L_j``) are the
building blocks of the hierarchical C0 bases used by the projection and FEM
modules; ``psi_j`` vanishes at both endpoints for j >= 1.  ``log_gamma``
is the one log-Gamma of the package: ``expansion`` and ``bounds`` form from
it the Gamma ratios that weight derivative norms in the Legendre basis.

``apply_axes`` is the one sum-factorization kernel: every tensor-product
quadrature, expansion and projection in the package goes through it, on one
tensor or on a batch of element tensors whose physical quadrature grids
``element_grids`` builds.  The element-batch kernels that FEM and DG share
sit beside them, for any d: ``grid_values`` evaluates data on those grids
(loads, Dirichlet and boundary data, interpolants and errors),
``kron_laplacian`` forms the tensor-product stiffness from 1D mass and
stiffness matrices, and ``gradient_error_sq`` is the pointwise squared
gradient error of a batch of coefficient tensors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "QuadratureRule",
    "GradedRule",
    "legendre_table",
    "legendre_deriv_table",
    "psi_table",
    "log_gamma",
    "gauss_rule",
    "graded_rule",
    "apply_axes",
    "element_grids",
    "grid_values",
    "kron_laplacian",
    "gradient_error_sq",
]


def legendre_table(nmax: int, x) -> np.ndarray:
    """Table L[n, m] = L_n(x_m) for n = 0..nmax, by the three-term recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((nmax + 1,) + x.shape)
    table[0] = 1.0
    if nmax >= 1:
        table[1] = x
    for n in range(2, nmax + 1):
        table[n] = ((2 * n - 1) * x * table[n - 1] - (n - 1) * table[n - 2]) / n
    return table


def legendre_deriv_table(nmax: int, k: int, x) -> np.ndarray:
    """Table of k-th derivatives L_n^(k)(x) for n = 0..nmax.

    Uses the recurrence L^(k)_n = (2n-1) L^(k-1)_{n-1} + L^(k)_{n-2}, applied
    k times starting from the value table.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = legendre_table(nmax, x)
    for _ in range(k):
        prev = table
        table = np.zeros_like(prev)
        for n in range(1, nmax + 1):
            table[n] = (2 * n - 1) * prev[n - 1]
            if n >= 2:
                table[n] += table[n - 2]
    return table


def psi_table(jmax: int, x) -> np.ndarray:
    """Table psi_j(x) for j = 0..jmax.

    psi_0(x) = x + 1 and, for j >= 1,
    psi_j(x) = -(1 - x^2) L_j'(x) / (j (j+1)), which equals int_{-1}^x L_j.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((jmax + 1,) + x.shape)
    table[0] = x + 1.0
    if jmax >= 1:
        dtab = legendre_deriv_table(jmax, 1, x)
        for j in range(1, jmax + 1):
            table[j] = -(1.0 - x * x) * dtab[j] / (j * (j + 1))
    return table


def log_gamma(x) -> np.ndarray:
    """log Gamma(x) for each entry x > 0 of ``x``, by ``math.lgamma``.

    The Gamma ratios Gamma(i+k+1)/Gamma(i-k+1) of the weighted norms
    ||(1-x^2)^(k/2) L_i^(k)||^2 and of the bounds are formed as differences
    of these logs.  Every table they fill holds a few thousand entries at
    most, so a loop over the entries costs less than importing a vectorized
    log-Gamma would.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False


@lru_cache(maxsize=256)
def gauss_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes (the roots of L_n), exact to degree 2n-1.

    Nodes are found by Newton iteration from Chebyshev initial guesses,
    tolerance 1e-15, at most 100 sweeps; weights are 2 / ((1-x^2) L_n'(x)^2).
    Rules are memoized: every call with the same n returns the same frozen
    rule, whose node and weight arrays are read-only and shared by all callers.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    i = np.arange(n)
    x = np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for _ in range(100):
        tab = legendre_deriv_table(n, 1, x)
        val = legendre_table(n, x)[n]
        dx = val / tab[n]
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce symmetry exactly
    dL = legendre_deriv_table(n, 1, x)[n]
    w = 2.0 / ((1.0 - x * x) * dL * dL)
    order = np.argsort(x)
    return QuadratureRule(nodes=x[order], weights=w[order])


@dataclass(frozen=True)
class GradedRule:
    """Gauss rule on the geometric corner pieces of [-1, 1]^d (Schwab 1998,
    ch. 4), graded toward the corner whose axis-k coordinate is ``corner[k]``.

    Row k of ``breakpoints`` cuts axis k into ``layers + 1`` cells, ascending
    from -1 to 1; counted from the corner, cell 0 is the thinnest and each
    further cell is 1/sigma times wider.  The pieces tile the element: cell 0
    on every axis is the innermost box, and layer i = 1..layers, the band
    between the corner boxes of cells 0..i-1 and of cells 0..i, is 2^d - 1
    boxes: for each non-empty set of axes, cell i on those axes and cells
    0..i-1 on the others.  Every piece carries the tensor Gauss rule of
    ``graded_rule``'s ``per_cell_order`` nodes; ``nodes[k]`` and
    ``weights[k]``, of shape (pieces, order), are the axis-k nodes and
    weights of every piece.  In one dimension the pieces are the cells, and
    the rule is the composite graded rule.
    """

    breakpoints: np.ndarray
    layers: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.breakpoints):
            arr.flags.writeable = False


@lru_cache(maxsize=256)
def graded_rule(sigma: float, layers: int, per_cell_order: int,
                corner: tuple = (-1,)) -> GradedRule:
    """Corner-piece rule in d = len(corner) dimensions whose cell boundaries
    lie 2*sigma^j from the corner, j = layers..1, on every axis.

    One layer with sigma = 1/2 in 1D is the plain per-cell rule on the two
    halves.  Layers beyond floating-point resolution (innermost width below
    ~2e-12, where high-order nodes would round onto the corner) are clamped.
    Memoized like ``gauss_rule``: equal arguments return the same read-only rule.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("grading ratio must lie in (0, 1)")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if not corner or any(c not in (-1, 1) for c in corner):
        raise ValueError("corner entries must be -1 or +1")
    d = len(corner)
    layers = min(layers, max(1, int(np.floor(np.log(1e-12) / np.log(sigma)))))
    # distance of each cell boundary from the corner, and its axis-k coordinate
    dist = np.concatenate(([0.0], 2.0 * sigma ** np.arange(layers, 0, -1), [2.0]))
    coord = np.array([c * (1.0 - dist) for c in corner])
    # each piece's (first, last) cell boundary on every axis, counted from
    # the corner: (i, i + 1) is cell i, (0, i) the cells 0..i-1
    spans = [((0, 1),) * d] + [
        tuple((i, i + 1) if outer else (0, i) for outer in axes)
        for i in range(1, layers + 1)
        for axes in itertools.product((False, True), repeat=d) if any(axes)]
    ends = np.take_along_axis(
        coord[:, None, :], np.array(spans).transpose(1, 0, 2), axis=2)
    lo, hi = ends.min(axis=2)[..., None], ends.max(axis=2)[..., None]
    half = 0.5 * (hi - lo)
    base = gauss_rule(per_cell_order)
    return GradedRule(breakpoints=np.sort(coord, axis=1), layers=layers,
                      nodes=0.5 * (lo + hi) + half * base.nodes,
                      weights=half * base.weights)


def apply_axes(tensor, mats) -> np.ndarray:
    """Sum factorization (Orszag 1980): apply ``mats[k]`` along the k-th of the
    last ``len(mats)`` axes of ``tensor``.

    ``tensor`` has shape ``batch + (n_1, ..., n_d)`` with d = len(mats); the
    leading ``batch`` axes (typically one axis over elements) are carried
    through untouched.  ``mats[k]`` is an (m_k, n_k) matrix, or ``None`` to
    leave axis k alone.  The result has shape ``batch + (m_1, ..., m_d)`` and
    equals the Kronecker product of the matrices applied to each flattened
    batch entry.  The cost is one matrix product per axis, in axis order:
    ``mats[k]`` times the (n_k, rest) unfolding of each batch entry, the same
    product an unbatched call makes on that entry.  Axis 0 is already in
    place, so it is contracted without the two ``np.moveaxis`` views.

    ``mats[k]`` may also be a stack of matrices, (..., m_k, n_k), whose
    leading axes broadcast against the batch axes, as matmul broadcasts: the
    pieces of a corner rule, one matrix per piece on a batch axis of length 1.
    """
    out = np.asarray(tensor)
    b = out.ndim - len(mats)                 # number of batch axes
    for k, mat in enumerate(mats):
        if mat is None:
            continue
        # batch, axis k, the other axes
        x = out if k == 0 else np.moveaxis(out, b + k, b)
        y = mat @ x.reshape(x.shape[:b + 1] + (-1,))
        y = y.reshape(y.shape[:b] + (mat.shape[-2],) + x.shape[b + 1:])
        out = y if k == 0 else np.moveaxis(y, b, b + k)
    return out


def element_grids(lower, half: float, nodes) -> list[np.ndarray]:
    """Physical quadrature coordinates of a batch of congruent boxes.

    ``lower`` is (ne, d) lower corners, ``half`` the half edge length and
    ``nodes[k]`` the reference nodes of axis k, (q_k,) or, for the pieces of
    a corner rule, (pieces, q_k).  Entry k holds
    ``lower[:, k] + half * (nodes[k] + 1)`` shaped to broadcast with the others
    to the batched grid (ne, q_1, ..., q_d), or (ne, pieces, q_1, ..., q_d).
    """
    lower = np.asarray(lower, dtype=float)
    ne, d = lower.shape
    return [(lower[:, k].reshape((ne,) + (1,) * np.ndim(x)) + half * (x + 1.0))
            .reshape((ne,) + np.shape(x)[:-1] + (1,) * k + (-1,)
                     + (1,) * (d - 1 - k))
            for k, x in enumerate(nodes)]


def grid_values(f, lower, half: float, nodes) -> np.ndarray:
    """f on the grids ``element_grids(lower, half, nodes)`` builds, as one
    float array of shape (ne, q_1, ..., q_d): f may return a scalar, an
    array of any shape that broadcasts to the grid, or the full grid.

    The nodes ``np.array([-1.0])`` on axis k put every point at ``lower[:, k]``
    itself, since ``half * (-1 + 1)`` is zero: the face or edge of a box
    whose corner ``lower`` is, as FEM's boundary entities and DG's boundary
    facets are evaluated.
    """
    grids = element_grids(lower, half, nodes)
    return np.broadcast_to(np.asarray(f(*grids), dtype=float),
                           (grids[0].shape[0],) + tuple(map(np.size, nodes)))


def kron_laplacian(M1, K1, dim: int) -> np.ndarray:
    """The tensor-product stiffness on [-1, 1]^dim: the sum over axes k of
    M1 x ... x K1 (on axis k) x ... x M1, Kronecker products with axis 0
    outermost, added in axis order from 0 as Python's ``sum`` adds them."""
    return sum(reduce(np.kron, [K1 if j == k else M1 for j in range(dim)])
               for k in range(dim))


def gradient_error_sq(coeffs, vals, ders, gradient, half: float) -> np.ndarray:
    """sum_k (gradient[k] - d_k u_h)^2 at every grid point of a batch of
    boxes of half edge ``half``, for u_h with coefficient tensors ``coeffs``
    (batch + (n_1, ..., n_d)).

    ``vals[k]`` and ``ders[k]`` tabulate the basis of axis k and its
    reference derivative at the nodes, (q_k, n_k) or per piece
    (pieces, q_k, n_k); partial k applies the derivative table on axis k
    only, through ``apply_axes``, and divides by ``half``.  The squares are
    formed and summed in place, axis 0 first, so the grid is held in as few
    buffers as possible (``fem.h1_error`` passes chunks of at most
    ``fem.ERROR_CHUNK`` points, where an L-shape corner element has
    107 500 at p = 25).
    """
    for k in range(len(vals)):
        e = gradient[k] - apply_axes(
            coeffs, [*vals[:k], ders[k], *vals[k + 1:]]) / half
        np.square(e, out=e)
        err_sq = np.add(err_sq, e, out=err_sq) if k else e
    return err_sq
