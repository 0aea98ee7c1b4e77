"""L2 and constructive H1 projections onto Q_p / P_p / S_p on (-1,1)^d.

The L2 projections are coefficient truncations to the Legendre indices that
``indexsets.degree_mask`` keeps for Q or P.  The H1 projections are built
the constructive way: along each axis apply the one-dimensional map

    u  |->  u(-1) * 1  +  sum_{j=0}^{p-1} (coeff of L_j in u') * psi_j,

which reproduces degree <= p polynomials and interpolates at -1.  Applying it
on every axis gives the tensor H1 projection onto Q_p; its natural output is a
"psi tensor" whose per-axis basis is (1, psi_0, psi_1, ..., psi_{p-1}), so
slot m has degree m.  The serendipity projection is the same tensor cut by
the S rule of ``indexsets.degree_mask``: keep a slot tuple iff its bubble
slots (slot m >= 2 is psi_{m-1}) sum to at most p, i.e. a product of k
bubbles keeps psi-index totals <= p - k.  The total-degree H1 projection
delegates to serendipity at degree p+1-d.  Conversion back to plain
Legendre coefficients uses psi_0 = L_0 + L_1 and
psi_j = (L_{j+1} - L_{j-1}) / (2j+1).  Every H1 projection, on all axes or
on some, is one routine: the per-axis maps to the psi slots and back are
built once per (p, reference degree) and shared read-only.

``h1s_bound`` is the right-hand side of the squared serendipity H1 error
bound in 2D and 3D: twice the Q_p H1 bound plus the truncation terms, by the
triangle inequality; ``audit_h1s_bounds`` measures from which degree it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import phi
from .errors import InadmissibleDegreeError
from .expansion import (CoeffTensor, _contract, _derivative, _outer_tables,
                        _tail_sums, _weight_vectors, l2_norm,
                        sobolev_seminorm, weighted_seminorm)
from .indexsets import degree_mask
from .orthopoly import apply_axes

__all__ = [
    "InadmissibleDegreeError",
    "ProjectionResult",
    "ErrorReport",
    "project_l2",
    "project_h1_q",
    "project_h1_s",
    "project_h1_p",
    "projection_errors",
    "h1_axis_matrix",
    "audit_h1s_bounds",
    "h1s_bound",
]


@dataclass(frozen=True)
class ProjectionResult:
    """A projection output in plain Legendre coefficients."""

    projected: CoeffTensor
    kind: str
    p: int


@dataclass(frozen=True)
class ErrorReport:
    l2: float
    h1_semi: float
    trusted: bool


def project_l2(u: CoeffTensor, family: str, p: int) -> ProjectionResult:
    """L2-orthogonal projection: truncate coefficients to the family index set."""
    if family not in ("Q", "P"):
        raise ValueError("L2 projection families are Q and P")
    if min(u.degrees) < p:
        raise ValueError("reference tensor degree budget is below p")
    out = u.coeffs[(slice(0, p + 1),) * u.dim]
    out = np.where(degree_mask(out.shape, family, p), out, 0.0)
    kind = "L2_Q" if family == "Q" else "L2_P"
    return ProjectionResult(
        projected=CoeffTensor(coeffs=out, tail_trusted=u.tail_trusted),
        kind=kind, p=p)


def _psi_to_legendre_matrix(p: int) -> np.ndarray:
    """Columns: Legendre coefficients of (1, psi_0, ..., psi_{p-1})."""
    T = np.zeros((p + 1, p + 1))
    T[0, 0] = 1.0
    T[0, 1] = 1.0
    if p >= 1:
        T[1, 1] = 1.0
    for j in range(1, p):
        T[j + 1, j + 1] = 1.0 / (2 * j + 1)
        T[j - 1, j + 1] = -1.0 / (2 * j + 1)
    return T


@lru_cache(maxsize=None)
def _axis_maps(p: int, m_src: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-dimensional H1 projection from degree m_src to degree p as
    the read-only pair (R, T), shared by every caller.

    R maps Legendre coefficients to the psi-tensor slots of one axis: row 0
    is the endpoint value L_i(-1) = (-1)^i (it multiplies the constant
    function), row 1+j the L_j coefficient of the derivative (it multiplies
    psi_j); T = ``_psi_to_legendre_matrix(p)`` maps the slots back.
    """
    if not 1 <= p <= m_src:
        raise ValueError("H1 projection needs 1 <= p <= reference degree")
    j, i = np.indices((p, m_src + 1))
    R = np.empty((p + 1, m_src + 1))
    R[0] = (-1.0) ** np.arange(m_src + 1)
    R[1:] = np.where((i > j) & ((i - j) % 2 == 1), 2.0 * j + 1.0, 0.0)
    T = _psi_to_legendre_matrix(p)
    R.flags.writeable = T.flags.writeable = False
    return R, T


def h1_axis_matrix(p: int, m_src: int) -> np.ndarray:
    """The one-dimensional H1 projection as a (p+1) x (m_src+1) matrix."""
    R, T = _axis_maps(p, m_src)
    return T @ R


def _project_h1(u: CoeffTensor, p: int, axes, serendipity: bool) -> CoeffTensor:
    """The 1D H1 projections on ``axes`` (the other axes untouched): R on
    each, the S rule on the psi tensor if ``serendipity`` (the mask over the
    active axes, broadcast over the others), then T on each."""
    maps = [_axis_maps(p, u.degrees[k]) if k in axes else (None, None)
            for k in range(u.dim)]
    rep = apply_axes(u.coeffs, [R for R, _ in maps])
    if serendipity:
        active = [n if k in axes else 1 for k, n in enumerate(rep.shape)]
        rep = rep * degree_mask(active, "S", p)
    out = apply_axes(rep, [T for _, T in maps])
    return CoeffTensor(coeffs=out.copy(), tail_trusted=u.tail_trusted)


def project_h1_q(u: CoeffTensor, p: int) -> ProjectionResult:
    """Tensor H1 projection onto Q_p; reproduces u at the (-1,..,-1)-corner
    lattice vertices and any member of Q_p."""
    if p < 1:
        raise InadmissibleDegreeError("H1 projection requires p >= 1")
    return ProjectionResult(projected=_project_h1(u, p, range(u.dim), False),
                            kind="H1_Q", p=p)


def project_h1_s(u: CoeffTensor, p: int) -> ProjectionResult:
    """Serendipity H1 projection: the psi tensor cut by the S rule."""
    d = u.dim
    minimum = 4 if d == 2 else 6
    if p < minimum:
        raise InadmissibleDegreeError(
            f"serendipity H1 projection requires p >= {minimum} in {d}D")
    return ProjectionResult(projected=_project_h1(u, p, range(d), True),
                            kind="H1_S", p=p)


def project_h1_p(u: CoeffTensor, p: int) -> ProjectionResult:
    """Total-degree H1 projection, defined as serendipity at degree p+1-d."""
    d = u.dim
    if p < 3 * d - 1:
        raise InadmissibleDegreeError(
            f"total-degree H1 projection requires p >= {3 * d - 1}")
    res = project_h1_s(u, p + 1 - d)
    return ProjectionResult(projected=res.projected, kind="H1_P", p=p)


def audit_h1s_bounds(u_ref: CoeffTensor, p_values, norm: str = "l2") -> dict:
    """Record the smallest degree at which the serendipity H1 bound holds.

    The bounds carry an unquantified "p sufficiently large"; for a given
    reference function this measures the empirical threshold, per admissible s.
    """
    d = u_ref.dim
    s = max(1, d - 1)     # smallest admissible order: 1 in 2D, 2 in 3D
    rows = []
    threshold = None
    for p in p_values:
        res = project_h1_s(u_ref, p)
        err = projection_errors(u_ref, res)
        lhs = (err.l2 if norm == "l2" else err.h1_semi) ** 2
        rows.append({"p": p, "lhs": lhs, "rhs": h1s_bound(u_ref, p, s, norm)})
        if threshold is None and lhs <= rows[-1]["rhs"]:
            threshold = p
    return {"kind": f"h1s_{norm}_{d}d", "s": s, "rows": rows,
            "smallest_p_holding": threshold}


def h1s_bound(u: CoeffTensor, p: int, s: int, norm: str) -> float:
    """Right-hand side of the squared error bound of the serendipity H1
    projection, in the L2 norm (``norm="l2"``) or the H1 seminorm (``"h1"``).

    By the triangle inequality it is twice the Q_p H1 bound plus the
    truncation terms of the dimension: in 2D twice one term (constant 36 for
    L2, 12 for H1); in 3D the terms T1 and T2 = T3 = T4 (constants 216 and
    504 for L2, 36 and 84 for H1), as 8 (T1 + 3 T2) for L2, the 8 from
    (sum of 4)^2 <= 4 * sum of squares, and 24 (T1 + 3 T2) for H1.  The
    inputs are squared L2 norms of derivatives D^alpha u, alpha[k]
    derivatives along axis k, the weighted seminorm of the mixed derivative
    D^(1,..,1) u and, in 3D, the H^(s+1) seminorm of u.  The operand order
    is that of the quoted bounds, so the values are reproducible bit for bit.
    """
    d = u.dim
    if norm not in ("l2", "h1"):
        raise ValueError(f"unknown norm {norm!r}: the bounds are 'l2' and 'h1'")
    if d not in (2, 3):
        raise ValueError("the serendipity H1 bounds are stated in 2D and 3D")
    if not d - 1 <= s <= p:
        raise ValueError(f"{d}D H1 bounds require {d - 1} <= s <= p")

    def sq(*alpha):
        return l2_norm(_derivative(u, alpha)) ** 2

    pp = p * (p + 1)
    vx = weighted_seminorm(_derivative(u, (1,) * d), s + 1 - d) ** 2
    if d == 2:
        a, b, c = sq(s + 1), sq(0, s + 1), sq(1, s)
        if norm == "l2":
            q = (2.0 / pp * phi(1, p, s) * (a + 2.0 * b)
                 + 4.0 / pp ** 2 * phi(1, p, s - 1) * c)
            return 2.0 * q + 2.0 * (36.0 * phi(2, p + 1, s + 1) * vx)
        q = (2.0 * phi(1, p, s) * (a + b)
             + 8.0 / pp * phi(1, p, s - 1) * (sq(s, 1) + c))
        return 2.0 * q + 2.0 * (12.0 * phi(2, p, s) * vx)
    ax = sq(s + 1) + sq(0, s + 1) + sq(0, 0, s + 1)
    triple = sq(1, 1, s - 1)
    h = sobolev_seminorm(u, s + 1) ** 2
    if norm == "l2":
        mixed = sq(1, s) + sq(1, 0, s) + sq(0, 1, s)
        q = (8.0 / pp * phi(1, p, s) * ax
             + 8.0 / pp ** 2 * phi(1, p, s - 1) * mixed
             + 8.0 / pp ** 3 * phi(1, p, s - 2) * triple)
        t = phi(3, p + 1, s + 1)
        return 2.0 * q + 8.0 * (216.0 * t * vx + 3.0 * (504.0 * t * h))
    mixed = (sq(1, s) + sq(0, 1, s) + sq(s, 0, 1) + sq(1, 0, s) + sq(s, 1)
             + sq(0, s, 1))
    q = (2.0 * phi(1, p, s) * ax
         + 8.0 / pp * phi(1, p, s - 1) * mixed
         + 8.0 / pp ** 2 * phi(1, p, s - 2) * 3.0 * triple)
    t = phi(3, p, s)
    return 2.0 * q + 24.0 * (36.0 * t * vx + 3.0 * (84.0 * t * h))


def projection_errors(u_ref: CoeffTensor, proj: ProjectionResult,
                      margin: int = 4) -> ErrorReport:
    """L2 and H1-seminorm error of a projection against the reference tensor.

    Both norms are exact Parseval sums on the coefficient difference a - P;
    the reference must out-resolve the projection degree by ``margin``.  P
    lives in the low block [0, q)^d, so each sum splits in two parts:

    - outside the block the terms are those of ``a`` alone; their sums
      depend on q only and are the outer-shell sums of ``a``
      (``expansion._OuterTables``, kept in ``u_ref.cache``);
    - inside the block they are summed afresh from b = a_B - P: b^2 w for
      ``l2`` and, for ``h1_semi``, the terms (4n+2) T_n^2 w_other of
      ||d_k (a - P)||^2 whose parity tail sums T_n (n + 1 < q) reach into
      the block.  Those T_n are taken along the lanes of a - P through the
      block (b, then a beyond it), at O(N q^(d-1)) cost, so each equals the
      one of the full difference tensor bit for bit.

    Every term is non-negative, so the split cancels nothing; only the
    grouping of the final sum differs from ``l2_norm`` and
    ``sobolev_seminorm(., 1)`` of a - P.  An L2 projection onto Q_p has
    b = 0, so its ``l2`` is the table entry alone and exactly
    non-increasing in p.
    """
    if min(u_ref.degrees) < proj.p + margin:
        raise ValueError("reference tensor does not out-resolve the projection")
    tables = _outer_tables(u_ref)
    P = proj.projected.coeffs
    q = max(P.shape)
    b = u_ref.coeffs[(slice(0, q),) * u_ref.dim].copy()
    b[tuple(slice(0, n) for n in P.shape)] -= P
    w = _weight_vectors((q,) * u_ref.dim)
    l2 = tables.l2[q] + _contract(b * b, w)
    h1 = tables.h1[q]
    for k in range(u_ref.dim):
        # a - P on the lanes along axis k through the block: b, then a
        beyond = u_ref.coeffs[tuple(slice(q, None) if j == k else slice(0, q)
                                    for j in range(u_ref.dim))]
        t = _tail_sums(np.concatenate([b, beyond], axis=k), k)
        t = t[(slice(None),) * k + (slice(0, q - 1),)]
        rows = list(w)
        rows[k] = 4.0 * np.arange(q - 1) + 2.0
        h1 += _contract(t * t, rows)
    return ErrorReport(l2=float(np.sqrt(l2)), h1_semi=float(np.sqrt(h1)),
                       trusted=u_ref.tail_trusted)
