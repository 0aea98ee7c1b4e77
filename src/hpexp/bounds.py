"""Closed-form bound machinery for the Q/P/serendipity projection estimates.

Central object is the Gamma-ratio constant

    phi(d, m, n) = (Gamma((m-n)/d + 1) / Gamma((m+n)/d + 1))^d,

computed via log-Gamma differences so that degrees well past p = 30 stay in
range.  The module also provides an exhaustive lattice audit of the
constrained-maximization inequality behind the projection bounds (which is
known to fail on mixed corner points; the audit reports rather than assumes),
the sharp per-mode constant of the total-degree L2 bound, and the right-hand
sides of the projection error bounds; the serendipity H1 bounds are composed
from the Q_p H1 bound and the truncation-difference bounds of their dimension.

The audit and the sharp ratio still visit every lattice point, as one gather
from a table of log-Gamma differences over all compositions at once.  The
per-axis terms are added left to right and the first maximum in enumeration
order is kept, so the numbers and argmaxes are those of the scalar loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expansion import composition_array
from .orthopoly import log_gamma

__all__ = [
    "LemmaAuditReport",
    "phi",
    "stirling_envelope_check",
    "lemma_audit",
    "sharp_l2_ratio",
    "bound_rhs",
]

LEMMA_AUDIT_CAP = 40


def phi(d: int, m: float, n: float) -> float:
    """Gamma-ratio constant (Gamma((m-n)/d+1)/Gamma((m+n)/d+1))^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n > m or n < 0:
        raise ValueError("need 0 <= n <= m")
    return float(np.exp(d * (log_gamma((m - n) / d + 1.0)
                             - log_gamma((m + n) / d + 1.0))))


def stirling_envelope_check(d: int, m: int, n: int) -> bool:
    """Check phi(d, m, n) <= (e/2)^(2n) * (d/m)^(2n) (the Stirling envelope)."""
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    lhs = d * (log_gamma((m - n) / d + 1.0) - log_gamma((m + n) / d + 1.0))
    rhs = 2.0 * n * (1.0 - np.log(2.0) + np.log(d) - np.log(m))
    return bool(lhs <= rhs + 1e-12 * abs(rhs))


@dataclass(frozen=True)
class LemmaAuditReport:
    """Exhaustive lattice maximum of F(xi, rho) against the phi bound."""

    d: int
    M: int
    m: int
    lattice_max: float
    argmax_xi: tuple[int, ...]
    argmax_rho: tuple[int, ...]
    phi_value: float
    holds: bool


def _lemma_table() -> np.ndarray:
    """T[x, r] = log(Gamma(r - x + 1) / Gamma(r + x + 1)) for x <= r, -inf below."""
    table = np.full((LEMMA_AUDIT_CAP + 1, LEMMA_AUDIT_CAP + 1), -np.inf)
    x, r = np.triu_indices(LEMMA_AUDIT_CAP + 1)
    table[x, r] = log_gamma(r - x + 1.0) - log_gamma(r + x + 1.0)
    return table


_LEMMA_TABLE = _lemma_table()
# _LATTICE[d][t]: the compositions of t into d parts, t <= LEMMA_AUDIT_CAP
_LATTICE = {d: [composition_array(t, d) for t in range(LEMMA_AUDIT_CAP + 1)]
            for d in (1, 2, 3)}


def lemma_audit(d: int, M: int, m: int) -> LemmaAuditReport:
    """Maximize F(xi, rho) = prod Gamma(rho_k - xi_k + 1)/Gamma(rho_k + xi_k + 1)
    over integer vectors with |xi| = m, |rho| = M, rho >= xi entrywise.

    The enumeration is exhaustive (no pruning); budgets beyond the cap are
    refused rather than sampled.
    """
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if not 0 <= m <= M:
        raise ValueError("need 0 <= m <= M")
    if M > LEMMA_AUDIT_CAP:
        raise ValueError(f"budget exceeds exhaustive enumeration cap {LEMMA_AUDIT_CAP}")
    x, r = _LATTICE[d][m], _LATTICE[d][M]
    # log F over every (xi, rho) pair, xi-major; a pair with rho_k < xi_k
    # gathers -inf, and each xi has a valid rho since M >= m
    val = _LEMMA_TABLE[x[:, 0]][:, r[:, 0]]
    for k in range(1, d):
        val = val + _LEMMA_TABLE[x[:, k]][:, r[:, k]]
    i, j = np.unravel_index(np.argmax(val), val.shape)
    phi_value = phi(d, M, m)
    lattice_max = float(np.exp(val[i, j]))
    return LemmaAuditReport(
        d=d, M=M, m=m, lattice_max=lattice_max,
        argmax_xi=tuple(x[i].tolist()), argmax_rho=tuple(r[j].tolist()),
        phi_value=phi_value,
        holds=bool(lattice_max <= phi_value * (1.0 + 1e-12)))


def sharp_l2_ratio(d: int, p: int, s: int, shell_buffer: int = 6):
    """Worst single-mode ratio error^2 / |u|_{V^s}^2 for the total-degree
    L2 projection: max over |i| in [p+1, p+1+shell_buffer] of
    1 / sum_{|alpha|=s, alpha<=i} prod Gamma(i_k+alpha_k+1)/Gamma(i_k-alpha_k+1).
    """
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if p < 0:
        raise ValueError("need p >= 0")
    if not 0 <= s <= p + 1:
        raise ValueError("need 0 <= s <= p+1")
    if shell_buffer < 0:
        raise ValueError("need shell_buffer >= 0")
    top = p + 1 + shell_buffer
    i = np.concatenate([composition_array(shell, d)
                        for shell in range(p + 1, top + 1)])
    # table[a, n] = log(Gamma(n + a + 1) / Gamma(n - a + 1)) for a <= n, -inf for a > n
    table = np.full((s + 1, top + 1), -np.inf)
    a, n = np.nonzero(np.arange(s + 1)[:, None] <= np.arange(top + 1))
    table[a, n] = log_gamma(n + a + 1.0) - log_gamma(n - a + 1.0)
    denom = np.zeros(len(i))
    for alpha in composition_array(s, d):
        t = table[alpha[0], i[:, 0]]
        for k in range(1, d):
            t = t + table[alpha[k], i[:, k]]
        # exp(-inf) = 0 for an alpha not below i adds nothing; every |i| >= s
        # has some alpha <= i with |alpha| = s, so each denominator is >= 1
        denom = denom + np.exp(t)
    ratio = 1.0 / denom
    best = np.argmax(ratio)
    return {"max_ratio": float(ratio[best]), "argmax": tuple(i[best].tolist())}


# ---------------------------------------------------------------------------
# Right-hand sides of the projection error bounds

def _need(seminorms: dict, keys) -> list[float]:
    missing = [k for k in keys if k not in seminorms]
    if missing:
        raise KeyError(f"missing seminorm keys: {missing}")
    return [float(seminorms[k]) for k in keys]


def bound_rhs(kind: str, p: int, s: int, seminorms: dict, d: int = 2) -> float:
    """Evaluate the right-hand side of one of the squared error bounds.

    Inputs are squared (semi)norm values keyed as documented per kind; the
    returned value bounds the squared L2 (or H1-seminorm) projection error.
    Kinds: l2_q / l2_p for the L2 projections; h1q_*/h1s_* for the H1
    projections in 2D and 3D; h1p_* delegates to h1s at degree p+1-d; the
    qs_* / t*_* kinds are the individually quoted truncation-difference
    bounds (with constants 36/12 in 2D, 216/504/36/84 in 3D).  Each h1s kind
    is composed from the h1q kind and the truncation kinds of its dimension
    by the triangle inequality, so its constants are those of its terms.
    """
    if kind == "l2_q":
        if not 0 <= s <= p + 1:
            raise ValueError("need 0 <= s <= p+1")
        (h,) = _need(seminorms, ["h_seminorm_sq"])
        return phi(1, p + 1, s) * h
    if kind == "l2_p":
        if not 0 <= s <= p + 1:
            raise ValueError("need 0 <= s <= p+1")
        (v,) = _need(seminorms, ["v_seminorm_sq"])
        return phi(d, p + 1, s) * v

    if kind in ("h1p_l2", "h1p_h1"):
        if p < 3 * d - 1:
            raise ValueError("total-degree H1 bound requires p >= 3d-1")
        sub = {"h1p_l2": {2: "h1s_l2_2d", 3: "h1s_l2_3d"},
               "h1p_h1": {2: "h1s_h1_2d", 3: "h1s_h1_3d"}}[kind][d]
        return bound_rhs(sub, p + 1 - d, s, seminorms, d=d)

    if kind.endswith("2d"):
        if not 1 <= s <= p:
            raise ValueError("2D H1 bounds require 1 <= s <= p")
    if kind.endswith("3d"):
        if not 2 <= s <= p:
            raise ValueError("3D H1 bounds require 2 <= s <= p")

    if kind == "h1q_l2_2d":
        a, b, c = _need(seminorms, ["d1_sp1_sq", "d2_sp1_sq", "d1_d2s_sq"])
        return (2.0 / (p * (p + 1)) * phi(1, p, s) * (a + 2.0 * b)
                + 4.0 / (p * (p + 1)) ** 2 * phi(1, p, s - 1) * c)
    if kind == "h1q_h1_2d":
        a, b, c, e = _need(seminorms,
                           ["d1_sp1_sq", "d2_sp1_sq", "d1_d2s_sq", "d1s_d2_sq"])
        return (2.0 * phi(1, p, s) * (a + b)
                + 8.0 / (p * (p + 1)) * phi(1, p, s - 1) * (e + c))
    if kind == "qs_l2_2d":
        (vx,) = _need(seminorms, ["mixed_v_sm1_sq"])
        return 36.0 * phi(2, p + 1, s + 1) * vx
    if kind == "qs_h1_2d":
        (vx,) = _need(seminorms, ["mixed_v_sm1_sq"])
        return 12.0 * phi(2, p, s) * vx
    if kind == "h1s_l2_2d":
        return (2.0 * bound_rhs("h1q_l2_2d", p, s, seminorms)
                + 2.0 * bound_rhs("qs_l2_2d", p, s, seminorms))
    if kind == "h1s_h1_2d":
        return (2.0 * bound_rhs("h1q_h1_2d", p, s, seminorms)
                + 2.0 * bound_rhs("qs_h1_2d", p, s, seminorms))

    if kind == "h1q_l2_3d":
        ax = _need(seminorms, ["d1_sp1_sq", "d2_sp1_sq", "d3_sp1_sq"])
        mixed = _need(seminorms, ["d1_d2s_sq", "d1_d3s_sq", "d2_d3s_sq"])
        (triple,) = _need(seminorms, ["d1_d2_d3sm1_sq"])
        return (8.0 / (p * (p + 1)) * phi(1, p, s) * sum(ax)
                + 8.0 / (p * (p + 1)) ** 2 * phi(1, p, s - 1) * sum(mixed)
                + 8.0 / (p * (p + 1)) ** 3 * phi(1, p, s - 2) * triple)
    if kind == "h1q_h1_3d":
        ax = _need(seminorms, ["d1_sp1_sq", "d2_sp1_sq", "d3_sp1_sq"])
        mixed = _need(seminorms, ["d1_d2s_sq", "d2_d3s_sq", "d3_d1s_sq",
                                  "d1_d3s_sq", "d2_d1s_sq", "d3_d2s_sq"])
        (triple,) = _need(seminorms, ["d1_d2_d3sm1_sq"])
        return (2.0 * phi(1, p, s) * sum(ax)
                + 8.0 / (p * (p + 1)) * phi(1, p, s - 1) * sum(mixed)
                + 8.0 / (p * (p + 1)) ** 2 * phi(1, p, s - 2) * 3.0 * triple)
    if kind == "t1_l2_3d":
        (v3,) = _need(seminorms, ["triple_v_sm2_sq"])
        return 216.0 * phi(3, p + 1, s + 1) * v3
    if kind == "t2_l2_3d":
        (h,) = _need(seminorms, ["h_sp1_seminorm_sq"])
        return 504.0 * phi(3, p + 1, s + 1) * h
    if kind == "t1_grad_3d":
        (v3,) = _need(seminorms, ["triple_v_sm2_sq"])
        return 36.0 * phi(3, p, s) * v3
    if kind == "t2_grad_3d":
        (h,) = _need(seminorms, ["h_sp1_seminorm_sq"])
        return 84.0 * phi(3, p, s) * h
    if kind == "h1s_l2_3d":
        # Triangle + term-splitting composition of the quoted pieces:
        # ||u - pi_S u||^2 <= 2||u - pi_Q u||^2 + 2(T1 + T2 + T3 + T4)^2-type,
        # with (sum of 4)^2 <= 4 * sum of squares and T2=T3=T4 bounds equal.
        q = bound_rhs("h1q_l2_3d", p, s, seminorms, d=3)
        t1 = bound_rhs("t1_l2_3d", p, s, seminorms, d=3)
        t2 = bound_rhs("t2_l2_3d", p, s, seminorms, d=3)
        return 2.0 * q + 8.0 * (t1 + 3.0 * t2)
    if kind == "h1s_h1_3d":
        q = bound_rhs("h1q_h1_3d", p, s, seminorms, d=3)
        t1 = bound_rhs("t1_grad_3d", p, s, seminorms, d=3)
        t2 = bound_rhs("t2_grad_3d", p, s, seminorms, d=3)
        return 2.0 * q + 3.0 * 8.0 * (t1 + 3.0 * t2)

    raise ValueError(f"unknown bound kind {kind!r}")

