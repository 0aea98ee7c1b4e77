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
psi_j = (L_{j+1} - L_{j-1}) / (2j+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expansion import CoeffTensor, differentiate, l2_norm, weighted_seminorm
from .orthopoly import apply_axes

__all__ = [
    "ProjectionResult",
    "ErrorReport",
    "project_l2",
    "project_h1_q",
    "project_h1_s",
    "project_h1_p",
    "project_h1_partial",
    "project_h1_s_pair",
    "projection_errors",
    "h1_axis_matrix",
    "audit_l2p_bound",
    "audit_h1s_bounds",
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
    d = u.dim
    out = u.coeffs[tuple(slice(0, p + 1) for _ in range(d))].copy()
    if family == "P":
        grids = np.indices(out.shape)
        out[sum(grids) > p] = 0.0
    kind = "L2_Q" if family == "Q" else "L2_P"
    return ProjectionResult(
        projected=CoeffTensor(coeffs=out, tail_trusted=u.tail_trusted),
        kind=kind, p=p)


def _deriv_coeff_matrix(p_rows: int, m_src: int) -> np.ndarray:
    """D[j, i] = coefficient of L_j in (L_i)', rows j = 0..p_rows-1."""
    D = np.zeros((p_rows, m_src + 1))
    for j in range(p_rows):
        for i in range(j + 1, m_src + 1):
            if (i - j) % 2 == 1:
                D[j, i] = 2 * j + 1
    return D


def _restriction_row(m_src: int) -> np.ndarray:
    """Values L_i(-1) = (-1)^i."""
    return (-1.0) ** np.arange(m_src + 1)


def _psi_rep_matrix(p: int, m_src: int) -> np.ndarray:
    """Map Legendre coefficients to the psi-tensor slots of one axis.

    Row 0 is the endpoint value at -1 (multiplies the constant function);
    row 1+j is the L_j coefficient of the axis derivative (multiplies psi_j).
    """
    if m_src < p:
        raise ValueError("reference degree is below the projection degree")
    R = np.zeros((p + 1, m_src + 1))
    R[0] = _restriction_row(m_src)
    R[1:] = _deriv_coeff_matrix(p, m_src)
    return R


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


def h1_axis_matrix(p: int, m_src: int) -> np.ndarray:
    """The one-dimensional H1 projection as a (p+1) x (m_src+1) matrix."""
    return _psi_to_legendre_matrix(p) @ _psi_rep_matrix(p, m_src)


def _on_axes(d: int, axes, mat_of_axis) -> list:
    """Per-axis matrices for ``apply_axes``: ``mat_of_axis(k)`` on ``axes``."""
    return [mat_of_axis(k) if k in axes else None for k in range(d)]


def _psi_rep(u: CoeffTensor, p: int, axes) -> np.ndarray:
    return apply_axes(u.coeffs, _on_axes(
        u.dim, axes, lambda k: _psi_rep_matrix(p, u.degrees[k])))


def _serendipity_mask(shape, axes, p: int) -> np.ndarray:
    """The S rule on the active axes: keep a slot tuple iff its bubble slots
    (slot m >= 2 is psi_{m-1}) sum to at most p."""
    slots = np.indices(shape)[list(axes)]
    return np.where(slots >= 2, slots, 0).sum(axis=0) <= p


def _psi_rep_to_result(rep: np.ndarray, u: CoeffTensor, p: int, axes,
                       kind: str) -> ProjectionResult:
    T = _psi_to_legendre_matrix(p)
    out = apply_axes(rep, _on_axes(u.dim, axes, lambda k: T))
    return ProjectionResult(
        projected=CoeffTensor(coeffs=out.copy(), tail_trusted=u.tail_trusted),
        kind=kind, p=p)


def project_h1_q(u: CoeffTensor, p: int) -> ProjectionResult:
    """Tensor H1 projection onto Q_p; reproduces u at the (-1,..,-1)-corner
    lattice vertices and any member of Q_p."""
    if p < 1:
        raise ValueError("H1 projection requires p >= 1")
    axes = range(u.dim)
    return _psi_rep_to_result(_psi_rep(u, p, axes), u, p, axes, "H1_Q")


def project_h1_s(u: CoeffTensor, p: int) -> ProjectionResult:
    """Serendipity H1 projection: bubble blocks filtered by total degree."""
    d = u.dim
    minimum = 4 if d == 2 else 6
    if p < minimum:
        raise ValueError(f"serendipity H1 projection requires p >= {minimum} in {d}D")
    axes = tuple(range(d))
    rep = _psi_rep(u, p, axes)
    rep = rep * _serendipity_mask(rep.shape, axes, p)
    return _psi_rep_to_result(rep, u, p, axes, "H1_S")


def project_h1_p(u: CoeffTensor, p: int) -> ProjectionResult:
    """Total-degree H1 projection, defined as serendipity at degree p+1-d."""
    d = u.dim
    if p < 3 * d - 1:
        raise ValueError(f"total-degree H1 projection requires p >= {3 * d - 1}")
    res = project_h1_s(u, p + 1 - d)
    return ProjectionResult(projected=res.projected, kind="H1_P", p=p)


def project_h1_partial(u: CoeffTensor, p: int, axes) -> CoeffTensor:
    """Apply the 1D H1 projections on a subset of axes only (others untouched)."""
    out = apply_axes(u.coeffs, _on_axes(
        u.dim, axes, lambda k: h1_axis_matrix(p, u.degrees[k])))
    return CoeffTensor(coeffs=out.copy(), tail_trusted=u.tail_trusted)


def project_h1_s_pair(u: CoeffTensor, p: int, axes=(0, 1)) -> CoeffTensor:
    """Serendipity projection in two of the variables, applied fiber-wise.

    The remaining axes are passive: each of their Legendre slices is projected
    with the 2D serendipity rule on ``axes``.
    """
    if len(axes) != 2:
        raise ValueError("pair projection needs exactly two axes")
    rep = _psi_rep(u, p, axes)
    rep = rep * _serendipity_mask(rep.shape, axes, p)
    return _psi_rep_to_result(rep, u, p, axes, "H1_S_pair").projected


def audit_l2p_bound(d: int, p_values=(4, 8, 12), n_samples: int = 200,
                    seed: int = 0) -> dict:
    """Audit error^2(Pi_P) <= phi(d, p+1, s) |u|_{V^s}^2 on random tensors.

    The underlying lattice inequality is known to fail on mixed corner points,
    so violations are reported, never assumed away; the trusted sufficient
    check is the per-mode grid bound (bounds.sharp_l2_ratio <= phi).
    """
    from .bounds import phi
    rng = np.random.default_rng(seed)
    violations = []
    checks = 0
    for p in p_values:
        shape = (p + 7,) * d
        for sample in range(n_samples):
            u = CoeffTensor(coeffs=rng.standard_normal(shape))
            err_sq = projection_errors(u, project_l2(u, "P", p), margin=0).l2 ** 2
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
    from .bounds import bound_rhs
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
    def dn(axes_orders):
        v = u
        for axis, k in axes_orders:
            for _ in range(k):
                v = differentiate(v, axis)
        return l2_norm(v) ** 2

    mixed = u
    for axis in range(d):
        mixed = differentiate(mixed, axis)
    out = {"d1_sp1_sq": dn([(0, s + 1)]), "d2_sp1_sq": dn([(1, s + 1)]),
           "d1_d2s_sq": dn([(0, 1), (1, s)]), "d1s_d2_sq": dn([(0, s), (1, 1)])}
    if d == 2:
        out["mixed_v_sm1_sq"] = weighted_seminorm(mixed, s - 1) ** 2
    else:
        out.update({
            "d3_sp1_sq": dn([(2, s + 1)]),
            "d1_d3s_sq": dn([(0, 1), (2, s)]),
            "d2_d3s_sq": dn([(1, 1), (2, s)]),
            "d3_d1s_sq": dn([(0, s), (2, 1)]),
            "d2_d1s_sq": dn([(0, s), (1, 1)]),
            "d3_d2s_sq": dn([(1, s), (2, 1)]),
            "d1_d2_d3sm1_sq": dn([(0, 1), (1, 1), (2, s - 1)]),
            "triple_v_sm2_sq": weighted_seminorm(mixed, s - 2) ** 2,
        })
        from .expansion import sobolev_seminorm
        out["h_sp1_seminorm_sq"] = sobolev_seminorm(u, s + 1) ** 2
    return out


def projection_errors(u_ref: CoeffTensor, proj: ProjectionResult,
                      margin: int = 4) -> ErrorReport:
    """L2 and H1-seminorm error of a projection against the reference tensor.

    Both norms are exact Parseval sums on the coefficient difference; the
    reference must out-resolve the projection degree by ``margin``.
    """
    if min(u_ref.degrees) < proj.p + margin:
        raise ValueError("reference tensor does not out-resolve the projection")
    diff = u_ref.coeffs.copy()
    sl = tuple(slice(0, n) for n in proj.projected.coeffs.shape)
    diff[sl] -= proj.projected.coeffs
    dt = CoeffTensor(coeffs=diff, tail_trusted=u_ref.tail_trusted)
    h1_sq = sum(l2_norm(differentiate(dt, axis)) ** 2 for axis in range(dt.dim))
    return ErrorReport(l2=l2_norm(dt), h1_semi=float(np.sqrt(h1_sq)),
                       trusted=u_ref.tail_trusted)
