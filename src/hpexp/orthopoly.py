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
``element_grids`` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    """Nodes/weights on [-1, 1], exact for polynomials up to exactness_degree."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

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
    return QuadratureRule(nodes=x[order], weights=w[order], exactness_degree=2 * n - 1)


@dataclass(frozen=True)
class GradedRule:
    """Composite Gauss rule on [-1, 1], geometrically refined toward one endpoint.

    ``layers`` geometric splits produce ``layers + 1`` cells between the
    ``breakpoints``; the per-cell rule is ``base``.  The flattened composite
    nodes/weights are exposed for tensorization.
    """

    base: QuadratureRule
    breakpoints: np.ndarray
    layers: int
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        xs, ws = [], []
        for a, b in zip(self.breakpoints[:-1], self.breakpoints[1:]):
            half = 0.5 * (b - a)
            xs.append(0.5 * (a + b) + half * self.base.nodes)
            ws.append(half * self.base.weights)
        object.__setattr__(self, "nodes", np.concatenate(xs))
        object.__setattr__(self, "weights", np.concatenate(ws))
        for arr in (self.nodes, self.weights, self.breakpoints):
            arr.flags.writeable = False


@lru_cache(maxsize=256)
def graded_rule(sigma: float, layers: int, per_cell_order: int,
                marked_end: int = -1) -> GradedRule:
    """Composite rule with breakpoints at marked_end + 2*sigma^j, j = layers..1.

    One layer with sigma = 1/2 is the plain per-cell rule on the two halves.
    Layers beyond floating-point resolution (innermost width below ~2e-12,
    where high-order nodes would round onto the marked endpoint) are clamped.
    Memoized like ``gauss_rule``: equal arguments return the same read-only rule.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("grading ratio must lie in (0, 1)")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if marked_end not in (-1, 1):
        raise ValueError("marked_end must be -1 or +1")
    layers = min(layers, max(1, int(np.floor(np.log(1e-12) / np.log(sigma)))))
    offsets = np.concatenate(([0.0], 2.0 * sigma ** np.arange(layers, 0, -1), [2.0]))
    if marked_end == -1:
        pts = -1.0 + offsets
    else:
        pts = (1.0 - offsets)[::-1].copy()
    return GradedRule(base=gauss_rule(per_cell_order), breakpoints=pts,
                      layers=layers)


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
    """
    out = np.asarray(tensor)
    b = out.ndim - len(mats)                 # number of batch axes
    for k, mat in enumerate(mats):
        if mat is None:
            continue
        # batch, axis k, the other axes
        x = out if k == 0 else np.moveaxis(out, b + k, b)
        y = (mat @ x.reshape(x.shape[:b + 1] + (-1,))).reshape(
            x.shape[:b] + (mat.shape[0],) + x.shape[b + 1:])
        out = y if k == 0 else np.moveaxis(y, b, b + k)
    return out


def element_grids(lower, half: float, nodes) -> list[np.ndarray]:
    """Physical quadrature coordinates of a batch of congruent boxes.

    ``lower`` is (ne, d) lower corners, ``half`` the half edge length and
    ``nodes[k]`` the reference nodes of axis k.  Entry k holds
    ``lower[:, k] + half * (nodes[k] + 1)`` shaped to broadcast with the others
    to the batched grid (ne, q_1, ..., q_d).
    """
    lower = np.asarray(lower, dtype=float)
    ne, d = lower.shape
    return [(lower[:, k, None] + half * (nodes[k] + 1.0)).reshape(
        (ne,) + (1,) * k + (-1,) + (1,) * (d - 1 - k)) for k in range(d)]
