import numpy as np
import pytest
from scipy.special import gamma

from hpexp.bounds import (LEMMA_AUDIT_CAP, lemma_audit, phi, sharp_l2_ratio,
                          stirling_envelope_check)
from hpexp.expansion import (CoeffTensor, _derivative, composition_array,
                             l2_norm, named_function, reference_expansion,
                             sobolev_seminorm, weighted_seminorm)
from hpexp.orthopoly import log_gamma
from hpexp.projections import audit_h1s_bounds, h1s_bound


def _lemma_audit_loop(d, M, m):
    # the scalar loop the table gather replaced: (lattice_max, xi, rho), on
    # the library's log-Gamma so that the two agree bit for bit
    def log_f(xi, rho):
        return float(sum(log_gamma(r - x + 1.0) - log_gamma(r + x + 1.0)
                         for x, r in zip(xi, rho)))

    best = -np.inf
    arg = None
    rhos = composition_array(M, d).tolist()
    for xi in composition_array(m, d).tolist():
        for rho in rhos:
            if all(r >= x for x, r in zip(xi, rho)):
                val = log_f(xi, rho)
                if val > best:
                    best, arg = val, (tuple(xi), tuple(rho))
    return float(np.exp(best)), arg[0], arg[1]


def _sharp_denominator(i, alphas):
    # D_s(i) = sum_{|alpha|=s, alpha<=i} prod Gamma(i_k+alpha_k+1)/Gamma(i_k-alpha_k+1)
    denom = 0.0
    for alpha in alphas:
        if all(ik >= ak for ik, ak in zip(i, alpha)):
            denom += np.exp(sum(
                log_gamma(ik + ak + 1.0) - log_gamma(ik - ak + 1.0)
                for ik, ak in zip(i, alpha)))
    return denom


def _sharp_l2_ratio_loop(d, p, s, n_shells):
    # the scalar loop the table gather replaced, on the library's log-Gamma,
    # over the shells |i| = p + 1, ..., p + n_shells
    alphas = composition_array(s, d).tolist()
    best = -np.inf
    arg = None
    for shell in range(p + 1, p + 1 + n_shells):
        for i in composition_array(shell, d).tolist():
            denom = _sharp_denominator(i, alphas)
            if denom > 0.0 and 1.0 / denom > best:
                best, arg = 1.0 / denom, tuple(i)
    return {"max_ratio": float(best), "argmax": arg}


def test_phi_values():
    for d in (1, 2, 3):
        for m in (1, 5, 12):
            assert phi(d, m, 0) == pytest.approx(1.0, rel=1e-14)
    assert phi(1, 3, 2) == pytest.approx(1.0 / 120.0, rel=1e-13)
    assert phi(2, 4, 2) == pytest.approx(1.0 / 36.0, rel=1e-13)


def test_phi_l2_rhs_constants():
    # the L2(Q) and L2(P) right-hand sides are phi(1, p+1, s) and
    # phi(d, p+1, s) times the squared seminorm; s = 0 leaves the seminorm
    assert phi(1, 8, 0) == pytest.approx(1.0, rel=1e-14)
    # the L2(P) constant at d = 2, p = 4, s = 2
    assert phi(2, 5, 2) == pytest.approx((gamma(2.5) / gamma(4.5)) ** 2,
                                         rel=1e-12)
    assert phi(2, 5, 2) == pytest.approx(0.013061, rel=1e-3)


def test_phi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi(2, 3, 4)
    with pytest.raises(ValueError):
        phi(0, 3, 1)


def test_phi_stays_finite_at_large_degree():
    # log-Gamma evaluation: no overflow well past p = 30
    val = phi(3, 121, 40)
    assert 0.0 < val < 1.0


def test_phi_decreasing_in_n():
    # strict decrease in n; the sole exception is m = 1 with d >= 2, where
    # both Gamma arguments sit in the dip of Gamma below 1 (phi(2,1,1) ties
    # phi(2,1,0) and phi(3,1,1) exceeds it)
    for d in (1, 2, 3):
        for m in range(2, 31):
            vals = [phi(d, m, n) for n in range(0, m + 1)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
    assert phi(2, 1, 1) == pytest.approx(phi(2, 1, 0), rel=1e-14)
    assert phi(3, 1, 1) > phi(3, 1, 0)


def test_stirling_envelope():
    assert stirling_envelope_check(1, 10, 3)
    assert stirling_envelope_check(3, 12, 4)
    for d in (1, 2, 3):
        for m in range(1, 31):
            for n in range(1, m + 1):
                assert stirling_envelope_check(d, m, n)


def test_lemma_audit_d1_is_equality():
    for M in range(0, 21):
        for m in range(0, M + 1):
            rep = lemma_audit(1, M, m)
            assert rep.holds
            assert rep.lattice_max == pytest.approx(rep.phi_value, rel=1e-12)


def test_lemma_audit_equality_case():
    rep = lemma_audit(2, 2, 2)
    assert rep.lattice_max == pytest.approx(0.25, rel=1e-14)
    assert rep.phi_value == pytest.approx(0.25, rel=1e-14)
    assert rep.holds
    assert set(rep.argmax_xi) == {1} and set(rep.argmax_rho) == {1}


def test_lemma_audit_mixed_corner_violation():
    rep = lemma_audit(2, 4, 2)
    assert rep.lattice_max == pytest.approx(1.0 / 24.0, rel=1e-13)
    assert rep.phi_value == pytest.approx(1.0 / 36.0, rel=1e-13)
    assert not rep.holds
    # maximizer concentrates xi on a coordinate where rho is balanced
    assert sorted(rep.argmax_xi) == [0, 2]
    assert sorted(rep.argmax_rho) == [2, 2]


def test_lemma_audit_matches_bruteforce():
    from itertools import product

    def brute(d, M, m):
        best = -1.0
        for xi in product(range(m + 1), repeat=d):
            if sum(xi) != m:
                continue
            for rho in product(range(M + 1), repeat=d):
                if sum(rho) != M or any(r < x for x, r in zip(xi, rho)):
                    continue
                val = np.prod([gamma(r - x + 1) / gamma(r + x + 1)
                               for x, r in zip(xi, rho)])
                best = max(best, val)
        return best

    for (d, M, m) in ((2, 5, 3), (3, 4, 2), (3, 6, 6)):
        rep = lemma_audit(d, M, m)
        assert rep.lattice_max == pytest.approx(brute(d, M, m), rel=1e-12)


_LEMMA_CASES = sorted(
    {(d, M, m) for d in (1, 2, 3) for M in (0, 1, 2, 7, 20) for m in (0, M)}
    | {(2, 4, 2), (3, 6, 6), (3, 30, 10)}
    | {(3, M, m) for M in range(13) for m in range(M + 1)})


@pytest.mark.parametrize("d,M,m", _LEMMA_CASES)
def test_lemma_audit_gather_matches_loop(d, M, m):
    lattice_max, xi, rho = _lemma_audit_loop(d, M, m)
    rep = lemma_audit(d, M, m)
    phi_value = phi(d, M, m)
    assert rep.lattice_max == lattice_max
    assert rep.phi_value == phi_value
    assert rep.holds == bool(lattice_max <= phi_value * (1.0 + 1e-12))
    assert rep.argmax_xi == xi and rep.argmax_rho == rho
    # plain ints: an np.int64 would print as np.int64(...) in CSVs and the CLI
    assert all(type(v) is int for v in rep.argmax_xi + rep.argmax_rho)


def test_lemma_audit_budget_cap():
    with pytest.raises(ValueError):
        lemma_audit(2, LEMMA_AUDIT_CAP + 1, 2)


def test_sharp_ratio_examples():
    res = sharp_l2_ratio(2, 1, 1)
    assert res["max_ratio"] == pytest.approx(0.25, rel=1e-13)
    assert res["argmax"] == (1, 1)
    res = sharp_l2_ratio(2, 9, 1)
    assert res["max_ratio"] == pytest.approx(1.0 / 60.0, rel=1e-13)
    assert res["argmax"] == (5, 5)
    for d, p in ((2, 3), (3, 5)):
        assert sharp_l2_ratio(d, p, 0)["max_ratio"] == pytest.approx(1.0)


@pytest.mark.parametrize("d,p,s", [(0, 1, 1), (4, 1, 1), (2, -1, 0), (3, -2, 0)])
def test_sharp_ratio_rejects_bad_dimension_and_degree(d, p, s):
    with pytest.raises(ValueError):
        sharp_l2_ratio(d, p, s)


@pytest.mark.parametrize("extra_shells", [0, 3, 6])
def test_sharp_ratio_gather_matches_loop(extra_shells):
    # the first shell against the loop over 1 + extra_shells shells: the first
    # holds the maximum; the criterion-6 grid, plus d = 1
    for d in (1, 2, 3):
        for p in range(1, 13):
            for s in range(0, min(p + 1, 4) + 1):
                res = sharp_l2_ratio(d, p, s)
                ref = _sharp_l2_ratio_loop(d, p, s, 1 + extra_shells)
                assert res == ref, (d, p, s)
                assert all(type(v) is int for v in res["argmax"])


def test_sharp_ratio_denominator_nondecreasing_on_first_shell():
    # D_s(i + e_k) >= D_s(i) for every |i| = p + 1 and every axis k, on the
    # criterion-6 grid: why sharp_l2_ratio visits the first shell only
    for d in (2, 3):
        for p in range(1, 13):
            for s in range(0, min(p + 1, 4) + 1):
                alphas = composition_array(s, d).tolist()
                for i in composition_array(p + 1, d).tolist():
                    denom = _sharp_denominator(i, alphas)
                    for k in range(d):
                        up = list(i)
                        up[k] += 1
                        assert _sharp_denominator(up, alphas) >= denom, \
                            (d, p, s, i, k)


def test_sharp_ratio_below_phi_on_grid():
    # the trusted per-mode form of the total-degree L2 bound
    for d in (2, 3):
        for p in range(1, 13):
            for s in range(0, min(p + 1, 4) + 1):
                res = sharp_l2_ratio(d, p, s)
                assert res["max_ratio"] <= phi(d, p + 1, s) * (1 + 1e-12)


def test_asymptotic_ordering_with_threshold():
    # phi_n(M, m) <= phi_d(M, m) holds for all M past a finite threshold
    for d in (2, 3):
        for n in range(1, d):
            for delta in (0.25, 0.5, 0.75):
                holds_from = None
                for M in range(4, 81, 4):
                    m = int(round(delta * M))
                    ok = phi(n, M, m) <= phi(d, M, m) * (1 + 1e-12)
                    if ok and holds_from is None:
                        holds_from = M
                    if not ok:
                        holds_from = None
                assert holds_from is not None and holds_from <= 40, \
                    (d, n, delta, holds_from)


def test_h1s_bound_zero_input():
    for d, p, s in ((2, 6, 2), (3, 7, 2)):
        zero = CoeffTensor(coeffs=np.zeros((p + 5,) * d))
        for norm in ("l2", "h1"):
            assert h1s_bound(zero, p, s, norm) == 0.0


def _sq(u, *alpha):
    return l2_norm(_derivative(u, alpha)) ** 2


def _h1s_2d_written_out(norm, p, s, a, b, c, e, vx):
    """The 2D serendipity bounds with their constants written out (the
    formulas the compositions replaced; bitwise reference)."""
    if norm == "l2":
        return (4.0 / (p * (p + 1)) * phi(1, p, s) * (a + 2.0 * b)
                + 8.0 / (p * (p + 1)) ** 2 * phi(1, p, s - 1) * c
                + 72.0 * phi(2, p + 1, s + 1) * vx)
    return (4.0 * phi(1, p, s) * (a + b)
            + 16.0 / (p * (p + 1)) * phi(1, p, s - 1) * (e + c)
            + 24.0 * phi(2, p, s) * vx)


def _h1s_3d_written_out(norm, p, s, ax, mixed, triple, vx, h):
    """The 3D serendipity bounds with their constants written out: twice
    the Q_p bound, then 8 (L2) or 24 (H1) times T1 + 3 T2.  ``mixed`` is
    the sum of the three (L2) or six (H1) mixed squared seminorms."""
    pp = p * (p + 1)
    if norm == "l2":
        return (16.0 / pp * phi(1, p, s) * ax
                + 16.0 / pp ** 2 * phi(1, p, s - 1) * mixed
                + 16.0 / pp ** 3 * phi(1, p, s - 2) * triple
                + (1728.0 * phi(3, p + 1, s + 1) * vx
                   + 24.0 * (504.0 * phi(3, p + 1, s + 1) * h)))
    return (4.0 * phi(1, p, s) * ax
            + 16.0 / pp * phi(1, p, s - 1) * mixed
            + 16.0 / pp ** 2 * phi(1, p, s - 2) * 3.0 * triple
            + 24.0 * (36.0 * phi(3, p, s) * vx
                      + 3.0 * (84.0 * phi(3, p, s) * h)))


def _reference_tensors(d, p_max):
    """The named functions' reference tensors, each symmetric in the axes,
    and seeded random tensors decaying at a different rate along each axis:
    their seminorms differ from axis to axis, so a derivative taken along
    the wrong axis, or a changed operand order, changes the bits."""
    rng = np.random.default_rng(5)
    out = {name: reference_expansion(named_function(name, d), p_max)
           for name in ("sine", "expsum", "runge1d-tensor")}
    i = np.indices((12,) * d)
    for k in range(10):
        rates = rng.uniform(0.3, 0.9, d).reshape((d,) + (1,) * d)
        out[f"random{k}"] = CoeffTensor(coeffs=rng.standard_normal(i.shape[1:])
                                        * np.prod(rates ** i, axis=0))
    return out


def test_h1s_2d_compositions_bitwise_equal_to_written_out_formulas():
    for name, u in _reference_tensors(2, 16).items():
        for s in range(1, 5):
            a, b = _sq(u, s + 1), _sq(u, 0, s + 1)
            c, e = _sq(u, 1, s), _sq(u, s, 1)
            vx = weighted_seminorm(_derivative(u, (1, 1)), s - 1) ** 2
            for p in range(s, 30):
                for norm in ("l2", "h1"):
                    ref = _h1s_2d_written_out(norm, p, s, a, b, c, e, vx)
                    assert h1s_bound(u, p, s, norm) == ref, (name, norm, p, s)


def test_h1s_3d_compositions_bitwise_equal_to_written_out_formulas():
    for name, u in _reference_tensors(3, 10).items():
        for s in (2, 3):
            ax = _sq(u, s + 1) + _sq(u, 0, s + 1) + _sq(u, 0, 0, s + 1)
            mixed = {"l2": _sq(u, 1, s) + _sq(u, 1, 0, s) + _sq(u, 0, 1, s),
                     "h1": (_sq(u, 1, s) + _sq(u, 0, 1, s) + _sq(u, s, 0, 1)
                            + _sq(u, 1, 0, s) + _sq(u, s, 1) + _sq(u, 0, s, 1))}
            triple = _sq(u, 1, 1, s - 1)
            vx = weighted_seminorm(_derivative(u, (1, 1, 1)), s - 2) ** 2
            h = sobolev_seminorm(u, s + 1) ** 2
            for p in range(s, 13):
                for norm in ("l2", "h1"):
                    ref = _h1s_3d_written_out(norm, p, s, ax, mixed[norm],
                                              triple, vx, h)
                    assert h1s_bound(u, p, s, norm) == ref, (name, norm, p, s)


def test_h1s_bound_rejects_unknown_norm_and_range():
    u2 = reference_expansion(named_function("sine", 2), 8)
    u3 = CoeffTensor(coeffs=np.ones((9, 9, 9)))
    for u, p, s, norm in ((u2, 5, 0, "l2"), (u2, 5, 6, "h1"), (u3, 7, 1, "l2"),
                          (u3, 7, 8, "h1"), (u2, 5, 2, "h2"), (u3, 7, 2, "L2"),
                          (CoeffTensor(coeffs=np.ones(9)), 5, 1, "l2")):
        with pytest.raises(ValueError):
            h1s_bound(u, p, s, norm)
    with pytest.raises(ValueError):
        audit_h1s_bounds(u2, range(4, 6), norm="h2")
