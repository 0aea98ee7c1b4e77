import numpy as np
import pytest
from scipy.special import gamma

from hpexp.bounds import (LEMMA_AUDIT_CAP, bound_rhs, lemma_audit, phi,
                          sharp_l2_ratio, stirling_envelope_check)
from hpexp.expansion import composition_array
from hpexp.orthopoly import log_gamma


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


def test_bound_rhs_l2_kinds():
    # s = 0: phi_1(p+1, 0) = 1, bound reduces to the H^0 seminorm
    assert bound_rhs("l2_q", 7, 0, {"h_seminorm_sq": 2.5}) == pytest.approx(2.5)
    val = bound_rhs("l2_p", 4, 2, {"v_seminorm_sq": 1.0}, d=2)
    expect = (gamma(2.5) / gamma(4.5)) ** 2
    assert val == pytest.approx(expect, rel=1e-12)
    assert val == pytest.approx(0.013061, rel=1e-3)


def test_bound_rhs_s_kinds_zero_input():
    zeros = {k: 0.0 for k in ("d1_sp1_sq", "d2_sp1_sq", "d1_d2s_sq",
                              "d1s_d2_sq", "mixed_v_sm1_sq")}
    assert bound_rhs("h1s_l2_2d", 6, 2, zeros, d=2) == 0.0
    assert bound_rhs("h1s_h1_2d", 6, 2, zeros, d=2) == 0.0


def _h1s_2d_written_out(kind, p, s, a, b, c, e, vx):
    """The 2D serendipity bounds with their constants written out (the
    formulas the compositions replaced; bitwise reference)."""
    if kind == "h1s_l2_2d":
        return (4.0 / (p * (p + 1)) * phi(1, p, s) * (a + 2.0 * b)
                + 8.0 / (p * (p + 1)) ** 2 * phi(1, p, s - 1) * c
                + 72.0 * phi(2, p + 1, s + 1) * vx)
    return (4.0 * phi(1, p, s) * (a + b)
            + 16.0 / (p * (p + 1)) * phi(1, p, s - 1) * (e + c)
            + 24.0 * phi(2, p, s) * vx)


def test_h1s_2d_compositions_bitwise_equal_to_written_out_formulas():
    rng = np.random.default_rng(5)
    keys = ("d1_sp1_sq", "d2_sp1_sq", "d1_d2s_sq", "d1s_d2_sq", "mixed_v_sm1_sq")
    for p in range(1, 60):
        for s in range(1, p + 1):
            vals = rng.random(5) * 10.0 ** rng.integers(-8, 8, 5)
            semis = dict(zip(keys, vals))
            for kind in ("h1s_l2_2d", "h1s_h1_2d"):
                new = bound_rhs(kind, p, s, semis, d=2)
                assert new == _h1s_2d_written_out(kind, p, s, *vals), (kind, p, s)


def test_bound_rhs_missing_key_and_range():
    with pytest.raises(KeyError):
        bound_rhs("h1q_l2_2d", 5, 2, {"d1_sp1_sq": 1.0}, d=2)
    with pytest.raises(ValueError):
        bound_rhs("h1q_l2_2d", 5, 0, {"d1_sp1_sq": 1, "d2_sp1_sq": 1,
                                      "d1_d2s_sq": 1}, d=2)
    with pytest.raises(ValueError):
        bound_rhs("h1p_l2", 4, 1, {}, d=2)
    with pytest.raises(ValueError):
        bound_rhs("no_such_kind", 4, 1, {}, d=2)


def test_bound_rhs_h1p_delegates():
    semis = {"d1_sp1_sq": 1.0, "d2_sp1_sq": 0.5, "d1_d2s_sq": 0.25,
             "d1s_d2_sq": 0.25, "mixed_v_sm1_sq": 0.125}
    assert bound_rhs("h1p_l2", 7, 2, semis, d=2) == pytest.approx(
        bound_rhs("h1s_l2_2d", 6, 2, semis, d=2), rel=1e-14)

