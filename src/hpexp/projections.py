"""L2 and constructive H1 projections onto Q_p / P_p / S_p on (-1,1)^d.

The L2 projections are coefficient truncations.  The H1 projections are built
the constructive way: along each axis apply the one-dimensional map

    u  |->  u(-1) * 1  +  sum_{j=0}^{p-1} (coeff of L_j in u') * psi_j,

which reproduces degree <= p polynomials and interpolates at -1.  Applying it
on every axis gives the tensor H1 projection onto Q_p; its natural output is a
"psi tensor" whose per-axis basis is (1, psi_0, psi_1, ..., psi_{p-1}).  The
serendipity projection is the same tensor cut by the S rule: keep a slot tuple
iff its bubble slots (slot m >= 2 is psi_{m-1}) sum to at most p, i.e. a
product of k bubbles keeps psi-index totals <= p - k.  The total-degree H1
projection delegates to serendipity at degree p+1-d.  Conversion back to plain
Legendre coefficients uses psi_0 = L_0 + L_1 and
psi_j = (L_{j+1} - L_{j-1}) / (2j+1).  Every H1 projection, on all axes or
on some, is one routine: the per-axis maps to the psi slots and back are
built once per (p, reference degree) and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import bound_rhs, phi
from .expansion import (CoeffTensor, _contract, _derivative, _outer_tables,
                        _tail_sums, _weight_vectors, l2_norm,
                        sobolev_seminorm, weighted_seminorm)
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
    "audit_l2p_bound",
    "audit_h1s_bounds",
]


class InadmissibleDegreeError(ValueError):
    """The projection is not defined at the requested degree."""


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
    d = u.dim
    out = u.coeffs[tuple(slice(0, p + 1) for _ in range(d))].copy()
    if family == "P":
        grids = np.indices(out.shape)
        out[sum(grids) > p] = 0.0
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


def _serendipity_mask(shape, axes, p: int) -> np.ndarray:
    """The S rule on the active axes: keep a slot tuple iff its bubble slots
    (slot m >= 2 is psi_{m-1}) sum to at most p."""
    slots = np.indices(shape)[list(axes)]
    return np.where(slots >= 2, slots, 0).sum(axis=0) <= p


def _project_h1(u: CoeffTensor, p: int, axes, serendipity: bool) -> CoeffTensor:
    """The 1D H1 projections on ``axes`` (the other axes untouched): R on
    each, the S rule on the psi tensor if ``serendipity``, then T on each."""
    maps = [_axis_maps(p, u.degrees[k]) if k in axes else (None, None)
            for k in range(u.dim)]
    rep = apply_axes(u.coeffs, [R for R, _ in maps])
    if serendipity:
        rep = rep * _serendipity_mask(rep.shape, axes, p)
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
    """Serendipity H1 projection: bubble blocks filtered by total degree."""
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


def audit_l2p_bound(d: int, p_values=(4, 8, 12), n_samples: int = 200,
                    seed: int = 0) -> dict:
    """Audit error^2(Pi_P) <= phi(d, p+1, s) |u|_{V^s}^2 on random tensors.

    The underlying lattice inequality is known to fail on mixed corner points,
    so violations are reported, never assumed away; the trusted sufficient
    check is the per-mode grid bound (bounds.sharp_l2_ratio <= phi).
    """
    rng = np.random.default_rng(seed)
    violations = []
    checks = 0
    for p in p_values:
        shape = (p + 7,) * d
        outside = sum(np.indices(shape)) > p
        for sample in range(n_samples):
            u = CoeffTensor(coeffs=rng.standard_normal(shape))
            # Pi_P keeps the coefficients on the simplex |i| <= p, so the
            # error is the Parseval sum of the others; each tensor is used
            # once, so projection_errors' per-tensor tables would not pay off
            err_sq = l2_norm(CoeffTensor(
                coeffs=np.where(outside, u.coeffs, 0.0))) ** 2
            for s in range(1, min(p + 1, 4) + 1):
                checks += 1
                rhs = phi(d, p + 1, s) * weighted_seminorm(u, s) ** 2
                if err_sq > rhs * (1.0 + 1e-12):
                    violations.append({"d": d, "p": p, "s": s,
                                       "sample": sample,
                                       "lhs": err_sq, "rhs": rhs})
    return {"d": d, "checks": checks, "n_violations": len(violations),
            "violations": violations}


def audit_h1s_bounds(u_ref: CoeffTensor, p_values, norm: str = "l2") -> dict:
    """Record the smallest degree at which the serendipity H1 bound holds.

    The bounds carry an unquantified "p sufficiently large"; for a given
    reference function this measures the empirical threshold, per admissible s.
    """
    d = u_ref.dim
    kind = {"l2": {2: "h1s_l2_2d", 3: "h1s_l2_3d"},
            "h1": {2: "h1s_h1_2d", 3: "h1s_h1_3d"}}[norm][d]
    s = max(1, d - 1)     # smallest admissible order: 1 in 2D, 2 in 3D
    rows = []
    threshold = None
    for p in p_values:
        res = project_h1_s(u_ref, p)
        err = projection_errors(u_ref, res)
        lhs = (err.l2 if norm == "l2" else err.h1_semi) ** 2
        rows.append({"p": p, "lhs": lhs,
                     "rhs": bound_rhs(kind, p, s, _h1_seminorms(u_ref, s, d), d=d)})
        if threshold is None and lhs <= rows[-1]["rhs"]:
            threshold = p
    return {"kind": kind, "s": s, "rows": rows, "smallest_p_holding": threshold}


def _h1_seminorms(u: CoeffTensor, s: int, d: int) -> dict:
    """Squared seminorm inputs demanded by the H1 bound formulas."""
    orders = {"d1_sp1_sq": (s + 1,), "d2_sp1_sq": (0, s + 1),
              "d1_d2s_sq": (1, s), "d1s_d2_sq": (s, 1)}
    if d == 3:
        orders.update({"d3_sp1_sq": (0, 0, s + 1), "d1_d3s_sq": (1, 0, s),
                       "d2_d3s_sq": (0, 1, s), "d3_d1s_sq": (s, 0, 1),
                       "d2_d1s_sq": (s, 1), "d3_d2s_sq": (0, s, 1),
                       "d1_d2_d3sm1_sq": (1, 1, s - 1)})
    out = {key: l2_norm(_derivative(u, alpha)) ** 2
           for key, alpha in orders.items()}
    mixed = _derivative(u, (1,) * d)
    if d == 2:
        out["mixed_v_sm1_sq"] = weighted_seminorm(mixed, s - 1) ** 2
    else:
        out["triple_v_sm2_sq"] = weighted_seminorm(mixed, s - 2) ** 2
        out["h_sp1_seminorm_sq"] = sobolev_seminorm(u, s + 1) ** 2
    return out


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
