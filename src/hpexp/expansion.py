"""Tensorized Legendre expansions on the reference element (-1,1)^d.

A function is represented by its Legendre coefficient tensor a_i, with
a_i = prod_k (2 i_k + 1)/2 * int u(x) prod_k L_{i_k}(x_k) dx.  Differentiation,
L2 norms, Sobolev seminorms and the weighted seminorms

    |u|_{V^s}^2 = sum_{|alpha| = s} sum_{i >= alpha} a_i^2
                  prod_k 2/(2 i_k + 1) * Gamma(i_k + alpha_k + 1)/Gamma(i_k - alpha_k + 1)

are all exact operations in coefficient space; quadrature only enters when a
function oracle is expanded.  Every norm is a Parseval sum: one contraction
of a^2 (or of squared tail sums) with per-axis weight rows, the Legendre
weights ||L_i||^2 = 2/(2i+1) of ``_weight_vectors``.  The function oracles
and the built-in test functions live in ``functions`` and are re-exported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import FunctionOracle, named_function
from .orthopoly import apply_axes, gauss_rule, legendre_table, log_gamma

__all__ = [
    "CoeffTensor",
    "FunctionOracle",
    "expand",
    "reference_expansion",
    "evaluate",
    "differentiate",
    "l2_norm",
    "sobolev_seminorm",
    "weighted_seminorm",
    "composition_array",
    "named_function",
]

DEFAULT_REFERENCE_MARGIN = 20
TAIL_ENERGY_TOLERANCE = 1e-14


@dataclass(frozen=True)
class CoeffTensor:
    """Legendre coefficient tensor of a function on (-1,1)^d.

    ``coeffs[i1, ..., id]`` multiplies prod_k L_{i_k}; ``tail_trusted`` records
    whether the outermost coefficient band was verified negligible, so that
    truncation-based error measurements against this tensor are defensible.
    ``cache`` holds data derived from ``coeffs``: the outer-shell sums of
    ``_OuterTables``, which ``reference_expansion`` builds for its trust
    check and ``projections.projection_errors`` reads, or builds on first
    use for any other tensor; ``coeffs`` is read-only, so it never goes
    stale, and every tensor has its own.
    """

    coeffs: np.ndarray
    tail_trusted: bool = True
    cache: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        self.coeffs.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.coeffs.shape)


def _weight_vectors(shape) -> list[np.ndarray]:
    """The Legendre weights ||L_i||^2 = 2/(2i+1) of each axis."""
    return [2.0 / (2.0 * np.arange(n) + 1.0) for n in shape]


def _contract(t: np.ndarray, rows) -> float:
    """sum_i t_i prod_k rows[k][i_k], one vector product per axis, last
    axis first."""
    for r in reversed(rows):
        t = t @ r
    return float(t)


def expand(f: FunctionOracle, degrees) -> CoeffTensor:
    """Expand an oracle into Legendre coefficients by tensor Gauss quadrature
    of ``max(degrees) + 10`` points per axis.

    Exact (to roundoff) whenever f is a polynomial of degree at most
    ``max(degrees) + 19`` per axis, as the rule then integrates every
    product f * L_i exactly.
    """
    degrees = tuple(int(m) for m in degrees)
    if len(degrees) != f.dim:
        raise ValueError("degree tuple does not match oracle dimension")
    rule = gauss_rule(max(degrees) + 10)
    grids = np.meshgrid(*([rule.nodes] * f.dim), indexing="ij", sparse=True)
    values = np.asarray(f.f(*grids), dtype=float)
    # (m+1, q) per axis: weighted, normalized Legendre values
    mats = [legendre_table(m, rule.nodes) * rule.weights
            * ((2 * np.arange(m + 1) + 1.0) / 2.0)[:, None] for m in degrees]
    return CoeffTensor(coeffs=apply_axes(values, mats))


def reference_expansion(f: FunctionOracle, p: int,
                        margin: int = DEFAULT_REFERENCE_MARGIN) -> CoeffTensor:
    """Overkill expansion used as the reference for degree-p error measurement.

    Uses degree m = p + margin in every direction, on ``expand``'s rule of
    m + 10 Gauss points per axis, and flags the tensor untrusted unless the
    outermost band, the entries outside [0, m - 1)^d, carries less than
    1e-14 of the total energy.  That fraction is read from the outer-shell
    sums, which sum non-negative terms only; they stay in the returned
    tensor's ``cache``.
    """
    m = p + margin
    # C order: sums over the tensor round by its layout, and every output
    # against a reference was measured on this one
    coeffs = expand(f, (m,) * f.dim).coeffs.copy()
    tables = _build_outer_tables(coeffs)
    total = tables.l2[0]
    trusted = bool(total == 0.0
                   or tables.l2[max(m - 1, 0)] < TAIL_ENERGY_TOLERANCE * total)
    out = CoeffTensor(coeffs=coeffs, tail_trusted=trusted)
    out.cache[_OuterTables] = tables
    return out


def evaluate(u: CoeffTensor, points: np.ndarray) -> np.ndarray:
    """Evaluate the expansion at scattered points of shape (npts, d)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != u.dim:
        raise ValueError("points dimension mismatch")
    out = u.coeffs
    for axis in range(u.dim):
        tab = legendre_table(u.degrees[axis], pts[:, axis])   # (m+1, npts)
        if axis == 0:
            out = np.einsum("i...,ip->p...", out, tab)
        else:
            out = np.einsum("pi...,ip->p...", out, tab)
    return out


def _tail_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """T_n = a_{n+1} + a_{n+3} + ... along ``axis``, for n = 0..m-1.

    Each parity is one ``np.cumsum`` from the top of the axis, so every T_n is
    summed in the order a running sum from n = m - 1 down would add it.
    """
    m = a.shape[axis] - 1
    top = np.flip(a, axis)                   # top[k] = a[m - k]
    out = np.empty(a.shape[:axis] + (m,) + a.shape[axis + 1:])
    rev = np.flip(out, axis)                 # rev[k] = T_{m-1-k}
    for parity in (0, 1):
        sl = (slice(None),) * axis + (slice(parity, m, 2),)
        np.cumsum(top[sl], axis=axis, out=rev[sl])
    return out


def differentiate(u: CoeffTensor, axis: int) -> CoeffTensor:
    """Exact derivative along one axis via the coefficient recurrence.

    If u = sum a_n L_n then u' = sum b_n L_n with
    b_n = (2n+1) * (a_{n+1} + a_{n+3} + ...); the degree drops by one.
    """
    a = u.coeffs
    m = a.shape[axis] - 1
    if m == 0:
        b = np.zeros_like(a)
    else:
        b = _tail_sums(a, axis) * (2.0 * np.arange(m) + 1.0).reshape(
            (-1,) + (1,) * (a.ndim - 1 - axis))
    return CoeffTensor(coeffs=b, tail_trusted=u.tail_trusted)


def l2_norm(u: CoeffTensor) -> float:
    """Parseval L2 norm: sqrt(sum a_i^2 prod 2/(2 i_k + 1))."""
    a = u.coeffs
    return float(np.sqrt(_contract(a * a, _weight_vectors(a.shape))))


def _derivative(u: CoeffTensor, alpha) -> CoeffTensor:
    """D^alpha u: ``alpha[k]`` derivatives along axis k, axis 0 first."""
    for axis, k in enumerate(alpha):
        for _ in range(k):
            u = differentiate(u, axis)
    return u


def _outer_sums(e: np.ndarray, shift) -> np.ndarray:
    """``out[q]`` = the sum of ``e`` over its entries of shell index >= q.

    The shell index of entry i is max_k (i_k + shift_k).  The shells are
    summed by one ``np.bincount`` and accumulated from the outermost inwards,
    so ``out`` is non-increasing in q and its last entry is 0.
    """
    shell = np.zeros((1,) * e.ndim, dtype=np.intp)
    for k, (n, c) in enumerate(zip(e.shape, shift)):
        shell = np.maximum(shell, (np.arange(n) + c).reshape(
            (-1,) + (1,) * (e.ndim - 1 - k)))
    sums = np.bincount(shell.ravel(), weights=e.ravel())
    out = np.zeros(len(sums) + 1)
    out[:-1] = np.cumsum(sums[::-1])[::-1]
    return out


@dataclass(frozen=True)
class _OuterTables:
    """The parts of the Parseval sums of a tensor ``a`` that lie outside the
    low block [0, q)^d, for every q.

    ``l2[q]`` sums a^2 w, w = prod_k 2/(2 i_k + 1), over the entries outside
    the block, so ``l2[0]`` is ||a||^2.  ``h1[q]`` sums, over the axes k, the
    terms (4n+2) T_n^2 w_other of ||d_k a||^2 (d_k a has the coefficients
    (2n+1) T_n, T_n the parity tail sum of ``differentiate``) whose T_n is
    not changed by the block, those with n + 1 >= q or another index >= q;
    ``h1[0]`` is |a|_{H^1}^2.
    """

    l2: np.ndarray
    h1: np.ndarray


def _build_outer_tables(a: np.ndarray) -> _OuterTables:
    d = a.ndim
    weights = _weight_vectors(a.shape)

    def weighted(e, mults):
        for k, v in enumerate(mults):
            e *= v.reshape((-1,) + (1,) * (d - 1 - k))
        return e

    l2 = _outer_sums(weighted(a * a, weights), (0,) * d)
    h1 = np.zeros_like(l2)
    for k, n in enumerate(a.shape):
        if n == 1:
            continue
        t = _tail_sums(a, k)
        mults = list(weights)
        mults[k] = 4.0 * np.arange(n - 1) + 2.0
        h1 += _outer_sums(weighted(t * t, mults),
                          tuple(int(j == k) for j in range(d)))
    return _OuterTables(l2=l2, h1=h1)


def _outer_tables(u: CoeffTensor) -> _OuterTables:
    """The outer-shell tables of ``u``, built on first use and kept in
    ``u.cache``."""
    tables = u.cache.get(_OuterTables)
    if tables is None:
        tables = u.cache[_OuterTables] = _build_outer_tables(u.coeffs)
    return tables


def composition_array(total: int, parts: int) -> np.ndarray:
    """All tuples of ``parts`` non-negative integers summing to ``total``, as
    the rows of an integer array in lexicographic order."""
    if parts < 1 or total < 0:
        raise ValueError("need parts >= 1 and total >= 0")
    heads = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([total])
    for _ in range(parts - 1):
        # each row branches into heads 0..rest, in ascending order
        counts = rest + 1
        head = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        heads = np.column_stack([np.repeat(heads, counts, axis=0), head])
        rest = np.repeat(rest, counts) - head
    return np.column_stack([heads, rest])


def sobolev_seminorm(u: CoeffTensor, s: int) -> float:
    """|u|_{H^s} = sqrt(sum_{|alpha|=s} ||D^alpha u||^2), exact in coefficient
    space; ``composition_array`` rejects s < 0, and s = 0 gives ``l2_norm(u)``
    bit for bit (the square root of a double's rounded square is the
    double)."""
    total = sum(l2_norm(_derivative(u, alpha)) ** 2
                for alpha in composition_array(s, u.dim).tolist())
    return float(np.sqrt(total))


def weighted_seminorm(u: CoeffTensor, s: int) -> float:
    """Weighted Sobolev seminorm |u|_{V^s}, diagonal in the Legendre expansion.

    One table G[k, i] = 2/(2i+1) Gamma(i+k+1)/Gamma(i-k+1) (zero for i < k)
    serves every axis: composition alpha contributes the contraction of a^2
    with the rows G[alpha_k] of its axes; ``composition_array`` rejects
    s < 0.
    """
    if s == 0:
        return l2_norm(u)
    a = u.coeffs
    w, = _weight_vectors((max(a.shape),))
    i = np.arange(len(w), dtype=float)
    k = np.arange(s + 1, dtype=float)[:, None]
    ok = i >= k
    G = np.where(ok, w * np.exp(log_gamma(i + k + 1.0)
                                - log_gamma(np.where(ok, i - k, 0.0) + 1.0)), 0.0)
    sq = a * a
    total = sum(_contract(sq, [G[c, :n] for c, n in zip(alpha, a.shape)])
                for alpha in composition_array(s, a.ndim).tolist())
    return float(np.sqrt(total))
