from itertools import product

import numpy as np
import pytest

from scipy.special import gammaln

from hpexp.expansion import (CoeffTensor, composition_array, differentiate,
                             evaluate, expand, l2_norm, named_function,
                             reference_expansion, sobolev_seminorm,
                             weighted_seminorm)
from hpexp.expansion import FunctionOracle, _OuterTables, _outer_tables
from hpexp.fem import mesh_uniform
from hpexp.orthopoly import element_grids, gauss_rule, graded_rule, legendre_table


def _oracle(dim, f):
    return FunctionOracle(dim=dim, f=f)


def test_expand_extracts_single_legendre_mode():
    f = _oracle(2, lambda x, y: 0.5 * (3 * x ** 2 - 1) * np.ones_like(y))
    u = expand(f, (4, 4))
    expect = np.zeros((5, 5))
    expect[2, 0] = 1.0
    assert np.max(np.abs(u.coeffs - expect)) < 1e-13


def test_expand_constant():
    u = expand(_oracle(2, lambda x, y: 1.0 + 0 * x * y), (3, 3))
    assert u.coeffs[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(u.coeffs)) == pytest.approx(1.0)


def test_expand_reconstructs_sine():
    f = named_function("sine", 2)
    u = expand(f, (30, 30))
    val = evaluate(u, np.array([[0.3, 0.7]]))[0]
    assert val == pytest.approx(np.sin(0.3 * np.pi) * np.sin(0.7 * np.pi),
                                abs=1e-12)


def test_differentiate_psi_and_constant():
    # psi_1 = (x^2-1)/2 = (L_2 - L_0)/3, derivative is L_1
    c = np.zeros(4)
    c[0], c[2] = -1.0 / 3.0, 1.0 / 3.0
    du = differentiate(CoeffTensor(coeffs=c), 0)
    assert du.coeffs == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    const = CoeffTensor(coeffs=np.ones((1, 1)))
    assert np.all(differentiate(const, 0).coeffs == 0.0)


def test_differentiate_matches_self_derivative_function():
    f = named_function("expsum", 2)
    u = expand(f, (24, 24))
    d1 = differentiate(u, 0)
    # expsum is its own derivative in every direction
    sl = tuple(slice(0, n) for n in d1.coeffs.shape)
    assert np.max(np.abs(d1.coeffs - u.coeffs[sl])) < 1e-9
    d11 = differentiate(d1, 0)
    sl = tuple(slice(0, n) for n in d11.coeffs.shape)
    assert np.max(np.abs(d11.coeffs - u.coeffs[sl])) < 1e-9


def test_mixed_partials_commute():
    rng = np.random.default_rng(7)
    u = CoeffTensor(coeffs=rng.standard_normal((9, 8)))
    a = differentiate(differentiate(u, 0), 1)
    b = differentiate(differentiate(u, 1), 0)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def _differentiate_loop(coeffs, axis):
    """The per-degree running-sum loop ``differentiate`` replaced: the
    reference of its bitwise contract."""
    a = np.moveaxis(coeffs, axis, 0)
    m = a.shape[0] - 1
    if m == 0:
        b = np.zeros_like(a)
    else:
        b = np.zeros((m,) + a.shape[1:])
        tail = np.zeros((2,) + a.shape[1:])  # tail[parity] = running sum
        for n in range(m - 1, -1, -1):
            parity = (n + 1) % 2
            tail[parity] = tail[parity] + a[n + 1]
            b[n] = (2 * n + 1) * tail[parity]
    return np.moveaxis(b, 0, axis).copy()


# every shape of d = 1..3 whose axis lengths are drawn from 1, 2, 3 and 45
_SHAPES = [shape for d in (1, 2, 3) for shape in product((1, 2, 3, 45), repeat=d)]


@pytest.mark.parametrize("shape", _SHAPES, ids=str)
def test_differentiate_bitwise_equal_to_loop(shape):
    c = np.random.default_rng(len(shape)).standard_normal(shape)
    for axis in range(len(shape)):
        new = differentiate(CoeffTensor(coeffs=c), axis).coeffs
        old = _differentiate_loop(c, axis)
        assert new.shape == old.shape and new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("shape", _SHAPES, ids=str)
def test_h1_seminorm_matches_derivative_norms(shape):
    # the outer-shell sums at q = 0 are ||u||^2 and |u|_{H^1}^2, the latter
    # from the tail sums of each axis, without a derivative tensor
    u = CoeffTensor(coeffs=np.random.default_rng(3).standard_normal(shape))
    tables = _outer_tables(u)
    assert np.sqrt(tables.l2[0]) == pytest.approx(l2_norm(u), rel=1e-14)
    h1 = sobolev_seminorm(u, 1)
    if max(shape) == 1:
        assert tables.h1[0] == 0.0 and h1 == 0.0
    else:
        assert np.sqrt(tables.h1[0]) == pytest.approx(h1, rel=1e-14)


def test_h1_seminorm_cases():
    # the H1 seminorm through sobolev_seminorm(u, 1) and the shell sums' h1[0]
    for shape in ((1,), (1, 1), (5, 4), (3, 3, 3)):
        c = np.zeros(shape)
        c[(0,) * len(shape)] = 2.5
        u = CoeffTensor(coeffs=c)
        assert sobolev_seminorm(u, 1) == 0.0
        assert _outer_tables(u).h1[0] == 0.0
    # u = L_3(x) L_2(y): ||L_n'||^2 = n(n+1) and ||L_n||^2 = 2/(2n+1)
    c = np.zeros((6, 4))
    c[3, 2] = 1.0
    u = CoeffTensor(coeffs=c)
    expect = np.sqrt(12.0 * 2.0 / 5.0 + (2.0 / 7.0) * 6.0)
    assert sobolev_seminorm(u, 1) == pytest.approx(expect, rel=1e-15)
    assert np.sqrt(_outer_tables(u).h1[0]) == pytest.approx(expect, rel=1e-15)


def _gamma_ratio_factors(m, alpha_k):
    """2/(2i+1) Gamma(i+a+1)/Gamma(i-a+1) for i = 0..m, zero for i < a."""
    i = np.arange(m + 1, dtype=float)
    out = np.zeros(m + 1)
    ok = i >= alpha_k
    out[ok] = (2.0 / (2.0 * i[ok] + 1.0) * np.exp(
        gammaln(i[ok] + alpha_k + 1.0) - gammaln(i[ok] - alpha_k + 1.0)))
    return out


def _weighted_seminorm_loop(coeffs, s):
    """The per-composition broadcast loop ``weighted_seminorm`` replaced."""
    sq = coeffs * coeffs
    total = 0.0
    for alpha in composition_array(s, coeffs.ndim).tolist():
        term = sq
        for axis, a_k in enumerate(alpha):
            fac = _gamma_ratio_factors(coeffs.shape[axis] - 1, a_k)
            term = term * fac.reshape([-1 if ax == axis else 1
                                       for ax in range(coeffs.ndim)])
        total += term.sum()
    return float(np.sqrt(total))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weighted_seminorm_matches_composition_loop(d):
    rng = np.random.default_rng(d)
    for shape in [(1,) * d, (2,) * d, (9,) * d, (13, 4, 7)[:d], (3, 19, 1)[:d]]:
        u = CoeffTensor(coeffs=rng.standard_normal(shape))
        for s in range(5):
            old = _weighted_seminorm_loop(u.coeffs, s)
            assert abs(weighted_seminorm(u, s) - old) <= 1e-14 * old, (shape, s)


def test_weighted_seminorm_cases():
    rng = np.random.default_rng(11)
    u = CoeffTensor(coeffs=rng.standard_normal((7, 7)))
    assert weighted_seminorm(u, 0) == pytest.approx(l2_norm(u), rel=1e-14)
    c = np.zeros((10, 2))
    c[9, 1] = 1.0
    single = CoeffTensor(coeffs=c)
    assert weighted_seminorm(single, 1) == pytest.approx(
        np.sqrt((2.0 / 19.0) * (2.0 / 3.0) * 92.0), rel=1e-13)


def test_weighted_seminorm_below_sobolev():
    f = named_function("sine", 2)
    u = reference_expansion(f, 6)
    for s in (1, 2, 3):
        assert weighted_seminorm(u, s) <= sobolev_seminorm(u, s) + 1e-9


def test_weighted_seminorm_identity_against_quadrature():
    # coefficient form of sum_{|alpha|=s} ||W^alpha D^alpha u||^2 vs quadrature
    f = named_function("expsum", 2)
    u = expand(f, (18, 18))
    rule = gauss_rule(30)
    X, Y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij", sparse=True)
    W2 = np.outer(rule.weights, rule.weights)
    for s in (1, 2):
        total = 0.0
        for a1 in range(s + 1):
            a2 = s - a1
            v = u
            for _ in range(a1):
                v = differentiate(v, 0)
            for _ in range(a2):
                v = differentiate(v, 1)
            tab1 = legendre_table(v.coeffs.shape[0] - 1, rule.nodes)
            tab2 = legendre_table(v.coeffs.shape[1] - 1, rule.nodes)
            vals = tab1.T @ v.coeffs @ tab2
            wgt = (1.0 - rule.nodes ** 2)[:, None] ** a1 \
                * (1.0 - rule.nodes ** 2)[None, :] ** a2
            total += np.sum(W2 * wgt * vals ** 2)
        assert weighted_seminorm(u, s) == pytest.approx(np.sqrt(total), rel=1e-8)


def test_sobolev_seminorm_cases():
    c = np.zeros((2, 1))
    c[1, 0] = 1.0      # u = x1 on the square
    u = CoeffTensor(coeffs=c.reshape(2, 1))
    assert sobolev_seminorm(u, 1) == pytest.approx(2.0, rel=1e-14)
    const = CoeffTensor(coeffs=np.ones((1, 1)))
    assert sobolev_seminorm(const, 2) == 0.0
    # order 0 is the L2 norm, bit for bit; a negative order is refused
    v = reference_expansion(named_function("expsum", 3), 6)
    assert sobolev_seminorm(v, 0) == l2_norm(v)
    with pytest.raises(ValueError):
        sobolev_seminorm(v, -1)


def test_sobolev_seminorm_sine_second_order():
    f = named_function("sine", 2)
    u = reference_expansion(f, 10)
    # quadrature of the three analytic second derivatives
    rule = gauss_rule(40)
    X, Y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    W2 = np.outer(rule.weights, rule.weights)
    pi = np.pi
    dxx = -pi ** 2 * np.sin(pi * X) * np.sin(pi * Y)
    dxy = pi ** 2 * np.cos(pi * X) * np.cos(pi * Y)
    dyy = dxx
    # |u|_{H^2}^2 sums over the multi-indices (2,0), (1,1), (0,2)
    expect = np.sqrt(np.sum(W2 * (dxx ** 2 + dxy ** 2 + dyy ** 2)))
    assert sobolev_seminorm(u, 2) == pytest.approx(expect, rel=1e-8)
    # every order: each of the s + 1 partials has L2 norm pi^s; roundoff in
    # the expanded coefficients is amplified ~n^s by differentiation
    for s in range(1, 9):
        assert sobolev_seminorm(u, s) == pytest.approx(
            np.pi ** s * np.sqrt(s + 1.0), rel=2e-4)


def test_parseval_against_quadrature():
    f = named_function("runge1d-tensor", 2)
    u = expand(f, (25, 25))
    rule = gauss_rule(45)
    X, Y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij", sparse=True)
    vals = f.f(X, Y)
    # subtract the truncation remainder: compare against the expansion itself
    tab = legendre_table(25, rule.nodes)
    uh = tab.T @ u.coeffs @ tab
    quad = np.sqrt(np.sum(np.outer(rule.weights, rule.weights) * uh ** 2))
    assert l2_norm(u) == pytest.approx(quad, rel=1e-10)
    assert float(np.max(np.abs(uh - vals))) < 1e-4   # sanity: good truncation


def test_reference_expansion_tail_flag():
    smooth = reference_expansion(named_function("sine", 2), 8)
    assert smooth.tail_trusted
    rough = reference_expansion(_oracle(2, lambda x, y: np.abs(x) + 0 * y), 4,
                                margin=6)
    assert not rough.tail_trusted
    zero = reference_expansion(_oracle(2, lambda x, y: 0 * x * y), 4)
    assert zero.tail_trusted


# (function, degree m = p + margin, verdict): the sine's outer band carries
# 1.42e-14 of its energy at m = 13 and 14, just above the 1e-14 tolerance;
# the Runge tensor's 2.1e-15 and 3.0e-16 at m = 36 and 38
@pytest.mark.parametrize("name,m,trusted", [
    ("sine", 13, False), ("sine", 14, False),
    ("runge1d-tensor", 36, True), ("runge1d-tensor", 38, True)])
def test_tail_trust_reads_the_outer_band_sum(name, m, trusted):
    u = reference_expansion(named_function(name, 2), m - 10, margin=10)
    tables = u.cache[_OuterTables]     # built by reference_expansion
    a = u.coeffs
    w = np.multiply.outer(*[2.0 / (2.0 * np.arange(n) + 1.0) for n in a.shape])
    outside = np.max(np.indices(a.shape), axis=0) >= m - 1
    direct = np.sum((a * a * w)[outside])
    assert tables.l2[m - 1] >= 0.0
    assert abs(tables.l2[m - 1] - direct) <= 1e-12 * direct
    assert u.tail_trusted is trusted


def test_compositions_cases():
    assert composition_array(0, 1).tolist() == [[0]]
    assert composition_array(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]
    assert composition_array(40, 3).shape == (861, 3)


@pytest.mark.parametrize("total,parts", [(3, 0), (0, 0), (2, -1), (-1, 1), (-1, 3)])
def test_compositions_rejects_bad_input(total, parts):
    # parts = 0 used to recurse until RecursionError, total = -1 gave [(-1,)]
    with pytest.raises(ValueError):
        composition_array(total, parts)


# The product sine as the FEM problems and the DG sweep wrote it before both
# took it from named_function: the references of the bitwise contract (the
# DG source and gradient were written as the 2D FEM ones).
def _fem_src2(x, y):
    return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def _fem_grad2(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def _fem_src3(x, y, z):
    return (3 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
            * np.sin(np.pi * z))


def _fem_grad3(x, y, z):
    sx, sy, sz = np.sin(np.pi * x), np.sin(np.pi * y), np.sin(np.pi * z)
    cx, cy, cz = np.cos(np.pi * x), np.cos(np.pi * y), np.cos(np.pi * z)
    return (np.pi * cx * sy * sz, np.pi * sx * cy * sz, np.pi * sx * sy * cz)


_dg_exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
_exact3 = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)

_REFERENCES = {2: (_dg_exact, _fem_grad2, _fem_src2),
               3: (_exact3, _fem_grad3, _fem_src3)}


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
@pytest.mark.parametrize("rule", ["gauss", "graded_low", "graded_high"])
def test_sine_is_bitwise_the_solvers_old_expressions(dim, n, rule):
    nodes = {"gauss": gauss_rule(9).nodes,
             "graded_low": graded_rule(0.15, 8, 6, (-1,)).nodes.ravel(),
             "graded_high": graded_rule(0.15, 8, 6, (1,)).nodes.ravel()}[rule]
    mesh = mesh_uniform(dim, n)
    xs = element_grids(mesh.elem_lower, 0.5 * mesh.h, [nodes] * dim)
    u = named_function("sine", dim)
    exact, grad, src = _REFERENCES[dim]
    assert np.array_equal(u.f(*xs), exact(*xs))
    assert np.array_equal(u.source(*xs), src(*xs))
    got, want = u.gradient(*xs), grad(*xs)
    assert len(got) == dim
    for k in range(dim):
        assert got[k].shape == want[k].shape
        assert np.array_equal(got[k], want[k]), k
