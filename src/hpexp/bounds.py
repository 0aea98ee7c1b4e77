"""Closed-form bound machinery for the Q/P/serendipity projection estimates.

Central object is the Gamma-ratio constant

    phi(d, m, n) = (Gamma((m-n)/d + 1) / Gamma((m+n)/d + 1))^d,

computed via log-Gamma differences so that degrees well past p = 30 stay in
range.  The module also provides an exhaustive lattice audit of the
constrained-maximization inequality behind the projection bounds (which is
known to fail on mixed corner points; the audit reports rather than assumes),
and the sharp per-mode constant of the total-degree L2 bound.  The right-hand
side of the serendipity H1 bound, built from phi and derivative seminorms of
the function, is ``projections.h1s_bound``.

The audit visits every lattice point, as one gather from a table of log-Gamma
differences over all compositions at once.  The table and the composition
lattices are built on the first audit, not at import, since ``projections``
imports this module for ``phi`` alone.  The sharp ratio visits the first
shell |i| = p + 1 only: its denominator is non-decreasing in each entry of i,
so no later shell holds a larger ratio.  The per-axis terms are added left to
right and the first maximum in enumeration order is kept, so the numbers and
argmaxes are those of the scalar loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .expansion import composition_array
from .indexsets import LEMMA_AUDIT_CAP, _integer
from .orthopoly import log_gamma

__all__ = [
    "LemmaAuditReport",
    "phi",
    "stirling_envelope_check",
    "lemma_audit",
    "sharp_l2_ratio",
]


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


@cache
def _lemma_table() -> np.ndarray:
    """T[x, r] = log(Gamma(r - x + 1) / Gamma(r + x + 1)) for x <= r, -inf below."""
    table = np.full((LEMMA_AUDIT_CAP + 1, LEMMA_AUDIT_CAP + 1), -np.inf)
    x, r = np.triu_indices(LEMMA_AUDIT_CAP + 1)
    table[x, r] = log_gamma(r - x + 1.0) - log_gamma(r + x + 1.0)
    return table


# _lattice(t, d): the compositions of t into d parts, t <= LEMMA_AUDIT_CAP
_lattice = cache(composition_array)


def lemma_audit(d: int, M: int, m: int) -> LemmaAuditReport:
    """Maximize F(xi, rho) = prod Gamma(rho_k - xi_k + 1)/Gamma(rho_k + xi_k + 1)
    over integer vectors with |xi| = m, |rho| = M, rho >= xi entrywise.

    The enumeration is exhaustive (no pruning); budgets beyond the cap are
    refused rather than sampled.
    """
    _integer(d=d, M=M, m=m)
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if not 0 <= m <= M:
        raise ValueError("need 0 <= m <= M")
    if M > LEMMA_AUDIT_CAP:
        raise ValueError(f"budget exceeds exhaustive enumeration cap {LEMMA_AUDIT_CAP}")
    x, r, table = _lattice(m, d), _lattice(M, d), _lemma_table()
    # log F over every (xi, rho) pair, xi-major; a pair with rho_k < xi_k
    # gathers -inf, and each xi has a valid rho since M >= m
    val = table[x[:, 0]][:, r[:, 0]]
    for k in range(1, d):
        val = val + table[x[:, k]][:, r[:, k]]
    i, j = np.unravel_index(np.argmax(val), val.shape)
    phi_value = phi(d, M, m)
    lattice_max = float(np.exp(val[i, j]))
    return LemmaAuditReport(
        d=d, M=M, m=m, lattice_max=lattice_max,
        argmax_xi=tuple(x[i].tolist()), argmax_rho=tuple(r[j].tolist()),
        phi_value=phi_value,
        holds=bool(lattice_max <= phi_value * (1.0 + 1e-12)))


def sharp_l2_ratio(d: int, p: int, s: int):
    """Worst single-mode ratio error^2 / |u|_{V^s}^2 for the total-degree
    L2 projection: max over |i| > p of
    1 / sum_{|alpha|=s, alpha<=i} prod Gamma(i_k+alpha_k+1)/Gamma(i_k-alpha_k+1).

    Only the shell |i| = p + 1 is visited: each Gamma ratio grows with i_k and
    the set of alpha <= i only grows, so the denominator is non-decreasing in
    each entry of i.
    """
    _integer(d=d, p=p, s=s)
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if p < 0:
        raise ValueError("need p >= 0")
    if not 0 <= s <= p + 1:
        raise ValueError("need 0 <= s <= p+1")
    i = composition_array(p + 1, d)
    # table[a, n] = log(Gamma(n + a + 1) / Gamma(n - a + 1)) for a <= n, -inf for a > n
    table = np.full((s + 1, p + 2), -np.inf)
    a, n = np.nonzero(np.arange(s + 1)[:, None] <= np.arange(p + 2))
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
