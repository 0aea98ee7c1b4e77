"""Tensorized Legendre expansions on the reference element (-1,1)^d.

A function is represented by its Legendre coefficient tensor a_i, with
a_i = prod_k (2 i_k + 1)/2 * int u(x) prod_k L_{i_k}(x_k) dx.  Differentiation,
L2 norms, the H1 seminorm, Sobolev seminorms and the weighted seminorms

    |u|_{V^s}^2 = sum_{|alpha| = s} sum_{i >= alpha} a_i^2
                  prod_k 2/(2 i_k + 1) * Gamma(i_k + alpha_k + 1)/Gamma(i_k - alpha_k + 1)

are all exact operations in coefficient space; quadrature only enters when a
function oracle is expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .orthopoly import apply_axes, gauss_rule, legendre_table

__all__ = [
    "CoeffTensor",
    "FunctionOracle",
    "InsufficientQuadratureError",
    "expand",
    "reference_expansion",
    "evaluate",
    "differentiate",
    "l2_norm",
    "h1_seminorm",
    "sobolev_seminorm",
    "weighted_seminorm",
    "composition_array",
    "compositions",
    "named_function",
]

DEFAULT_REFERENCE_MARGIN = 20
TAIL_ENERGY_TOLERANCE = 1e-14


class InsufficientQuadratureError(ValueError):
    """Raised when a quadrature order cannot resolve the requested degrees."""


@dataclass(frozen=True)
class CoeffTensor:
    """Legendre coefficient tensor of a function on (-1,1)^d.

    ``coeffs[i1, ..., id]`` multiplies prod_k L_{i_k}; ``tail_trusted`` records
    whether the outermost coefficient band was verified negligible, so that
    truncation-based error measurements against this tensor are defensible.
    ``cache`` holds data derived from ``coeffs`` by other modules (such as
    the outer-shell error sums of ``projections.projection_errors``), built
    on first use; ``coeffs`` is read-only, so it never goes stale, and every
    tensor has its own.
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


@dataclass(frozen=True)
class FunctionOracle:
    """A function of d coordinates, with the derivatives a solver needs.

    ``f`` takes d broadcastable coordinate arrays, anywhere in R^d, not only
    on the reference element.  ``gradient`` returns the d partial
    derivatives and ``source`` is -Laplace(u); both are set for the sine,
    whose FEM and DG problems take u, grad u and -Laplace(u) from here.
    """

    dim: int
    f: Callable[..., np.ndarray]
    gradient: Optional[Callable[..., tuple[np.ndarray, ...]]] = None
    source: Optional[Callable[..., np.ndarray]] = None


def _weight_vectors(shape) -> list[np.ndarray]:
    return [2.0 / (2.0 * np.arange(n) + 1.0) for n in shape]


def _weight_tensor(shape) -> np.ndarray:
    vecs = _weight_vectors(shape)
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return out


def expand(f: FunctionOracle, degrees, quad_order: int) -> CoeffTensor:
    """Expand an oracle into Legendre coefficients by tensor Gauss quadrature.

    Exact (to roundoff) whenever f is a polynomial within the degree budget and
    quad_order resolves the products f * L_i.
    """
    degrees = tuple(int(m) for m in degrees)
    if len(degrees) != f.dim:
        raise ValueError("degree tuple does not match oracle dimension")
    if quad_order < max(degrees) + 1:
        raise InsufficientQuadratureError(
            f"quad_order {quad_order} cannot resolve degree {max(degrees)}")
    rule = gauss_rule(quad_order)
    grids = np.meshgrid(*([rule.nodes] * f.dim), indexing="ij", sparse=True)
    values = np.asarray(f.f(*grids), dtype=float)
    # (m+1, q) per axis: weighted, normalized Legendre values
    mats = [legendre_table(m, rule.nodes) * rule.weights
            * ((2 * np.arange(m + 1) + 1.0) / 2.0)[:, None] for m in degrees]
    return CoeffTensor(coeffs=apply_axes(values, mats))


def _outer_band_fraction(coeffs: np.ndarray, band: int = 2) -> float:
    """Energy fraction carried by the outermost coefficient band."""
    w = _weight_tensor(coeffs.shape)
    energy = coeffs * coeffs * w
    total = energy.sum()
    if total == 0.0:
        return 0.0
    inner = energy[tuple(slice(0, n - band) for n in coeffs.shape)].sum()
    return float((total - inner) / total)


def reference_expansion(f: FunctionOracle, p: int,
                        margin: int = DEFAULT_REFERENCE_MARGIN) -> CoeffTensor:
    """Overkill expansion used as the reference for degree-p error measurement.

    Uses degree p + margin in every direction and quad_order max degree + 10,
    and flags the tensor untrusted unless the outermost band carries less than
    1e-14 of the total energy.
    """
    m = p + margin
    tensor = expand(f, (m,) * f.dim, m + 10)
    trusted = _outer_band_fraction(tensor.coeffs) < TAIL_ENERGY_TOLERANCE
    return CoeffTensor(coeffs=tensor.coeffs.copy(), tail_trusted=trusted)


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
    w = _weight_tensor(u.coeffs.shape)
    return float(np.sqrt(np.sum(u.coeffs * u.coeffs * w)))


def h1_seminorm(u: CoeffTensor) -> float:
    """|u|_{H^1} = sqrt(sum_k ||d_k u||^2) from the tail sums of each axis.

    d_k u has the coefficients (2n+1) T_n along axis k, with T_n the parity
    tail sum of ``differentiate``, and ||L_n||^2 = 2/(2n+1), so
    ||d_k u||^2 = sum_n 2(2n+1) T_n^2 weighted by 2/(2i+1) on every other
    axis: one contraction of T^2 with 1 x n weight rows, no derivative or
    weight tensor.
    """
    a = u.coeffs
    rows = [w[None, :] for w in _weight_vectors(a.shape)]
    total = 0.0
    for axis, n in enumerate(a.shape):
        if n == 1:
            continue
        t = _tail_sums(a, axis)
        np.square(t, out=t)
        mats = list(rows)
        mats[axis] = (4.0 * np.arange(n - 1) + 2.0)[None, :]
        total += float(apply_axes(t, mats).item())
    return float(np.sqrt(total))


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


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """The rows of ``composition_array`` as tuples of Python ints."""
    return [tuple(c) for c in composition_array(total, parts).tolist()]


def sobolev_seminorm(u: CoeffTensor, s: int) -> float:
    """|u|_{H^s} = sqrt(sum_{|alpha|=s} ||D^alpha u||^2), exact in coefficient space."""
    if s < 0:
        raise ValueError("order must be non-negative")
    if s == 0:
        return l2_norm(u)
    total = 0.0
    for alpha in compositions(s, u.dim):
        v = u
        for axis, k in enumerate(alpha):
            for _ in range(k):
                v = differentiate(v, axis)
        total += l2_norm(v) ** 2
    return float(np.sqrt(total))


def _gamma_ratio_factors(m: int, alpha_k: int) -> np.ndarray:
    """Vector over i = 0..m of 2/(2i+1) * Gamma(i+a+1)/Gamma(i-a+1), zero for i < a."""
    i = np.arange(m + 1, dtype=float)
    out = np.zeros(m + 1)
    ok = i >= alpha_k
    out[ok] = (2.0 / (2.0 * i[ok] + 1.0)
               * np.exp(gammaln(i[ok] + alpha_k + 1.0) - gammaln(i[ok] - alpha_k + 1.0)))
    return out


def weighted_seminorm(u: CoeffTensor, s: int) -> float:
    """Weighted Sobolev seminorm |u|_{V^s}, diagonal in the Legendre expansion."""
    if s < 0:
        raise ValueError("order must be non-negative")
    if s == 0:
        return l2_norm(u)
    sq = u.coeffs * u.coeffs
    total = 0.0
    for alpha in compositions(s, u.dim):
        term = sq
        for axis, a_k in enumerate(alpha):
            fac = _gamma_ratio_factors(u.coeffs.shape[axis] - 1, a_k)
            term = term * fac.reshape([-1 if ax == axis else 1
                                       for ax in range(u.dim)])
        total += term.sum()
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Built-in test functions


def named_function(name: str, dim: int, runge_a: float = 0.5) -> FunctionOracle:
    """Built-in analytic test functions: 'sine', 'expsum', 'runge1d-tensor'."""
    if name == "sine":
        def f(*xs):
            out = np.sin(np.pi * xs[0])
            for x in xs[1:]:
                out = out * np.sin(np.pi * x)
            return out

        # the pinned solver errors fix the operand order: ((pi f_0) f_1) f_2
        # with f_k the cosine factor, and ((d pi^2) s_0) s_1 for -Laplace(u)
        def gradient(*xs):
            outs = []
            for k in range(dim):
                g = np.pi
                for j, x in enumerate(xs):
                    g = g * (np.cos if j == k else np.sin)(np.pi * x)
                outs.append(g)
            return tuple(outs)

        def source(*xs):
            out = dim * np.pi ** 2
            for x in xs:
                out = out * np.sin(np.pi * x)
            return out

        return FunctionOracle(dim=dim, f=f, gradient=gradient, source=source)
    if name == "expsum":
        return FunctionOracle(dim=dim, f=lambda *xs: np.exp(sum(xs)))
    if name == "runge1d-tensor":
        def f(*xs):
            out = 1.0 / (1.0 + (xs[0] / runge_a) ** 2)
            for x in xs[1:]:
                out = out / (1.0 + (x / runge_a) ** 2)
            return out

        return FunctionOracle(dim=dim, f=f)
    raise ValueError(f"unknown function name {name!r}")
