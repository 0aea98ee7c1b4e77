from functools import reduce
from itertools import product

import numpy as np
import pytest
from scipy.special import gammaln

from hpexp.orthopoly import (apply_axes, gauss_rule, gradient_error_sq,
                             graded_rule, grid_values, kron_laplacian,
                             legendre_deriv_table, legendre_table, log_gamma,
                             psi_table)


def test_legendre_point_values():
    assert legendre_table(0, 0.3)[0, 0] == 1.0
    assert legendre_table(2, 0.5)[2, 0] == pytest.approx(-0.125, abs=1e-15)
    assert legendre_table(7, 1.0)[7, 0] == pytest.approx(1.0, abs=1e-14)


def test_legendre_endpoint_is_one_for_all_degrees():
    table = legendre_table(40, np.array([1.0]))
    assert np.allclose(table[:, 0], 1.0, atol=1e-12)


def test_first_derivative_values():
    assert legendre_deriv_table(2, 1, 0.5)[2, 0] == pytest.approx(1.5, abs=1e-14)
    assert legendre_deriv_table(3, 4, 0.1)[3, 0] == 0.0


def test_higher_derivative_against_finite_differences():
    # central difference of the first derivative as the independent check
    x, h = 0.25, 1e-6
    d1 = legendre_deriv_table(6, 1, [x - h, x + h])[6]
    fd = (d1[1] - d1[0]) / (2 * h)
    assert legendre_deriv_table(6, 2, x)[6, 0] == pytest.approx(fd, abs=1e-6 * abs(fd))


def test_psi_values_and_endpoints():
    assert psi_table(0, 1.0)[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert psi_table(1, -1.0)[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert psi_table(1, 1.0)[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert psi_table(1, 0.0)[1, 0] == pytest.approx(-0.5, abs=1e-15)
    ends = psi_table(15, np.array([-1.0, 1.0]))
    assert np.max(np.abs(ends[1:])) < 1e-13


@pytest.mark.parametrize("j", [0, 1, 2, 5, 9])
def test_psi_matches_antiderivative(j):
    rule = gauss_rule(20)
    for x in (-0.7, 0.1, 0.83):
        half = (x + 1.0) / 2.0
        nodes = -1.0 + half * (rule.nodes + 1.0)
        integral = half * np.dot(rule.weights, legendre_table(j, nodes)[j])
        assert psi_table(j, x)[j, 0] == pytest.approx(integral, abs=1e-12)


def test_gauss_small_rules():
    r1 = gauss_rule(1)
    assert np.allclose(r1.nodes, [0.0]) and np.allclose(r1.weights, [2.0])
    r2 = gauss_rule(2)
    assert np.allclose(np.abs(r2.nodes), 1.0 / np.sqrt(3.0), atol=1e-15)
    assert np.allclose(r2.weights, 1.0, atol=1e-15)


def test_gauss_monomial_exactness():
    r = gauss_rule(8)
    assert abs(np.dot(r.weights, r.nodes ** 15)) < 1e-13
    assert np.dot(r.weights, r.nodes ** 14) == pytest.approx(2.0 / 15.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
def test_gauss_rule_invariants(n):
    r = gauss_rule(n)
    assert np.all(r.weights > 0)
    assert np.sum(r.weights) == pytest.approx(2.0, abs=1e-13)
    # exact on x^(2n-1); off by a nonzero amount on x^(2n) while the Gauss
    # remainder is still above roundoff (it decays factorially in n)
    exact = 2.0 / (2 * n + 1)
    assert abs(np.dot(r.weights, r.nodes ** (2 * n - 1))) < 1e-13
    if n <= 13:
        assert abs(np.dot(r.weights, r.nodes ** (2 * n)) - exact) > 1e-14
    # nodes are the roots of L_n
    assert np.max(np.abs(legendre_table(n, r.nodes)[n])) < 1e-13


def test_log_gamma_matches_scipy_gammaln():
    # every argument the Gamma-ratio tables take: the integers of the lemma,
    # sharp-ratio and weighted-seminorm tables, and the (m -+ n)/d + 1 of phi
    x = np.concatenate([np.arange(1.0, 121.0)]
                       + [np.arange(361) / d + 1.0 for d in (1, 2, 3)])
    got, ref = log_gamma(x), gammaln(x)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # the shape of the argument is kept, a scalar gives a 0-d array
    assert log_gamma(x.reshape(3, -1)).shape == (3, len(x) // 3)
    assert log_gamma(4.0).shape == ()
    assert log_gamma(4.0) == pytest.approx(np.log(6.0), rel=1e-15)


def test_derivative_orthogonality_relation():
    # quadrature of (1-x^2)^k L_i^(k) L_j^(k) against the Gamma-ratio diagonal
    nmax, kmax = 20, 20
    rule = gauss_rule(2 * nmax + 2)
    for k in range(kmax + 1):
        tab = legendre_deriv_table(nmax, k, rule.nodes)
        wk = rule.weights * (1.0 - rule.nodes ** 2) ** k
        G = (tab * wk) @ tab.T
        for i in range(k, nmax + 1):
            diag = (2.0 / (2 * i + 1)) * np.exp(gammaln(i + k + 1) - gammaln(i - k + 1))
            assert G[i, i] == pytest.approx(diag, rel=1e-10)
            for j in range(k, i):
                assert abs(G[i, j]) < 1e-10 * diag


def test_psi_weighted_orthogonality():
    # psi_j psi_k / (1-z^2) = (1-z^2) L_j' L_k' / (j(j+1) k(k+1)), a polynomial
    nmax = 20
    rule = gauss_rule(2 * nmax + 4)
    dtab = legendre_deriv_table(nmax, 1, rule.nodes)
    w = rule.weights * (1.0 - rule.nodes ** 2)
    for j in range(1, nmax + 1):
        for k in range(j, nmax + 1):
            val = np.dot(w, dtab[j] * dtab[k]) / (j * (j + 1) * k * (k + 1))
            if j == k:
                expect = 2.0 / (j * (j + 1) * (2 * j + 1))
                assert val == pytest.approx(expect, rel=1e-10)
            else:
                assert abs(val) < 1e-12


def test_graded_rule_one_layer_matches_two_half_rule():
    g = graded_rule(0.5, 1, 2, (-1,))
    assert np.allclose(g.breakpoints, [-1.0, 0.0, 1.0])
    for c in ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 2.0, -1.0)):
        poly = np.polynomial.Polynomial(c)
        plain = gauss_rule(2).weights @ poly(gauss_rule(2).nodes)
        assert g.weights[0].ravel() @ poly(g.nodes[0].ravel()) \
            == pytest.approx(plain, abs=1e-12)


def test_graded_rule_resolves_endpoint_singularity():
    g = graded_rule(0.15, 20, 16, (-1,))
    exact = 1.5 * 2.0 ** (2.0 / 3.0)
    assert g.weights[0].ravel() @ (1.0 + g.nodes[0].ravel()) ** (-1.0 / 3.0) \
        == pytest.approx(exact, abs=1e-8)
    mirrored = graded_rule(0.15, 20, 16, (+1,))
    assert mirrored.weights[0].ravel() @ (
        1.0 - mirrored.nodes[0].ravel()) ** (-1.0 / 3.0) \
        == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("sigma,layers,order,end",
                         [(0.5, 1, 2, -1), (0.15, 20, 16, -1),
                          (0.3, 7, 4, 1), (0.45, 3, 6, 1)])
def test_graded_rule_partition_invariants(sigma, layers, order, end):
    g = graded_rule(sigma, layers, order, (end,))
    assert np.sum(g.weights) == pytest.approx(2.0, abs=1e-13)
    assert np.all(np.diff(g.breakpoints[0]) > 0)
    w = np.diff(g.breakpoints[0])
    w_in = w if end == -1 else w[::-1]     # index 0 = cell at the marked end
    assert np.all(np.diff(w_in) >= -1e-15)   # widths grow away from the end
    # geometric ratio 1/sigma between consecutive non-innermost cells (skip
    # cells so thin that endpoint absorption perturbs their width)
    ratios = w_in[2:] / w_in[1:-1]
    ok = w_in[1:-1] > 1e-6
    if np.any(ok):
        assert np.allclose(ratios[ok], 1.0 / sigma, rtol=1e-9)


def test_graded_rule_rejects_bad_ratio():
    with pytest.raises(ValueError):
        graded_rule(1.5, 3, 4, (-1,))
    with pytest.raises(ValueError):
        graded_rule(0.0, 3, 4, (-1,))


def test_graded_rule_rejects_bad_corner():
    for corner in ((), (0,), (-1, 2)):
        with pytest.raises(ValueError, match="corner"):
            graded_rule(0.15, 3, 4, corner)


def _piece_boxes(g):
    """(axis, piece, lo/hi) bounds of each piece: the Gauss nodes are
    symmetric about the midpoint and the weights sum to the width."""
    mid = g.nodes.mean(axis=2)
    half = 0.5 * g.weights.sum(axis=2)
    return np.stack([mid - half, mid + half], axis=2)


@pytest.mark.parametrize("sigma,layers,order", [
    (0.15, 20, 3), (0.5, 1, 2), (0.3, 4, 4)])
@pytest.mark.parametrize("corner", [(-1, -1), (1, -1), (-1, 1, 1), (1, 1, -1)])
def test_corner_pieces_tile_the_element(sigma, layers, order, corner):
    g = graded_rule(sigma, layers, order, corner)
    d, n = len(corner), g.layers + 1
    assert g.nodes.shape == g.weights.shape == (d, (2 ** d - 1) * g.layers + 1,
                                                order)
    # the product weights sum to the volume 2^d
    vol = reduce(np.multiply, [
        w.reshape(w.shape[:1] + (1,) * k + (-1,) + (1,) * (d - 1 - k))
        for k, w in enumerate(g.weights)])
    assert np.sum(vol) == pytest.approx(2.0 ** d, rel=1e-14)
    # every piece is a box of whole cells, and every cell lies in one piece
    boxes = _piece_boxes(g)
    count = np.zeros((n,) * d, dtype=int)
    for piece in range(boxes.shape[1]):
        span = []
        for k in range(d):
            lo, hi = (np.argmin(np.abs(g.breakpoints[k] - x))
                      for x in boxes[k, piece])
            assert np.allclose(boxes[k, piece], g.breakpoints[k, [lo, hi]],
                               rtol=0, atol=1e-15)
            assert lo < hi
            span.append(slice(lo, hi))
        count[tuple(span)] += 1
    assert np.all(count == 1)
    # exact on every per-axis polynomial of degree <= 2 order - 1, here the
    # monomials: int_{-1}^1 x^a = 2/(a+1) for even a, 0 for odd a
    deg = np.arange(2 * order)
    moments = np.where(deg % 2 == 0, 2.0 / (deg + 1), 0.0)
    for a in product(deg, repeat=d):
        # per piece, the product of its per-axis 1D sums
        got = np.sum(np.prod([np.sum(g.weights[k] * g.nodes[k] ** a[k], axis=1)
                              for k in range(d)], axis=0))
        assert got == pytest.approx(np.prod(moments[list(a)]), abs=1e-14)


def test_gauss_rule_is_memoized_and_read_only():
    r = gauss_rule(7)
    assert gauss_rule(7) is r
    for arr in (r.nodes, r.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gauss_rule_rejects_zero_nodes_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            gauss_rule(0)


def test_graded_rule_is_memoized_and_read_only():
    g = graded_rule(0.15, 12, 6, (-1, 1))
    assert graded_rule(0.15, 12, 6, (-1, 1)) is g
    for arr in (g.nodes, g.weights, g.breakpoints):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)],
                         ids=["single", "batch", "batch2"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("skip", [None, 0, -1], ids=["all", "first", "last"])
def test_apply_axes_is_kronecker(batch, dim, skip):
    rng = np.random.default_rng(dim + len(batch))
    shape = (3, 4, 2)[:dim]
    rows = (5, 2, 3)[:dim]
    mats = [rng.standard_normal((m, n)) for m, n in zip(rows, shape)]
    if skip is not None:
        # None leaves that axis alone: the identity in the Kronecker product
        mats[skip] = None
    kron = np.ones((1, 1))
    for mat, n in zip(mats, shape):
        kron = np.kron(kron, np.eye(n) if mat is None else mat)
    tensor = rng.standard_normal(batch + shape)
    out = apply_axes(tensor, mats)
    assert out.shape == batch + tuple(
        n if mat is None else mat.shape[0] for mat, n in zip(mats, shape))
    flat = tensor.reshape(batch + (-1,)) @ kron.T
    assert np.allclose(out.reshape(batch + (-1,)), flat, rtol=1e-13, atol=1e-13)
    if batch:
        # batch entries are independent: the same bits as one at a time
        first = apply_axes(tensor[(0,) * len(batch)], mats)
        assert np.array_equal(out[(0,) * len(batch)], first)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_apply_axes_stacked_matrices_are_per_piece_products(dim):
    # a stack of per-piece matrices on each axis, broadcast against a batch
    # axis of length 1: entry (element, piece) is the unbatched call
    rng = np.random.default_rng(dim)
    shape, rows, pieces = (3, 4, 2)[:dim], (5, 2, 3)[:dim], 4
    mats = [rng.standard_normal((pieces, m, n)) for m, n in zip(rows, shape)]
    tensor = rng.standard_normal((2, 1) + shape)
    out = apply_axes(tensor, mats)
    assert out.shape == (2, pieces) + rows
    for e in range(2):
        for q in range(pieces):
            one = apply_axes(tensor[e, 0], [m[q] for m in mats])
            assert np.allclose(out[e, q], one, rtol=1e-14, atol=1e-14)


def _apply_axes_moveaxis_form(tensor, mats):
    """``apply_axes`` as it was before axis 0 skipped ``np.moveaxis``
    (bitwise reference)."""
    out = np.asarray(tensor)
    b = out.ndim - len(mats)
    for k, mat in enumerate(mats):
        if mat is None:
            continue
        x = np.moveaxis(out, b + k, b)
        y = mat @ x.reshape(x.shape[:b + 1] + (-1,))
        out = np.moveaxis(y.reshape(x.shape[:b] + (mat.shape[0],)
                                    + x.shape[b + 1:]), b, b + k)
    return out


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)],
                         ids=["single", "batch", "batch2"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_apply_axes_bitwise_equal_to_moveaxis_form(layout, batch, dim):
    # the FEM and DG pins rest on these products' rounding, so skipping the
    # no-op moves must change no bit: square, wide, 1 x n row and None
    # matrices, on contiguous, Fortran-ordered and strided tensors
    rng = np.random.default_rng(7 * dim + len(batch))
    shape = (23, 9, 17)[:dim]
    tensor = rng.standard_normal(batch + tuple(2 * n for n in shape))
    tensor = tensor[(slice(None),) * len(batch)
                    + tuple(slice(None, None, 2) for _ in shape)]
    if layout == "C":
        tensor = np.ascontiguousarray(tensor)
    elif layout == "F":
        tensor = np.asfortranarray(tensor)
    cases = [[rng.standard_normal((m, n)) for m, n in zip((31, 9, 1), shape)],
             [rng.standard_normal((1, n)) for n in shape],
             [None] + [rng.standard_normal((5, n)) for n in shape[1:]],
             [rng.standard_normal((4, shape[0]))] + [None] * (dim - 1)]
    for mats in cases:
        new = apply_axes(tensor, mats)
        old = _apply_axes_moveaxis_form(tensor, mats)
        assert new.shape == old.shape and new.dtype == old.dtype
        assert np.ascontiguousarray(new).tobytes() == \
            np.ascontiguousarray(old).tobytes()


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


# what data functions return on a batch of grids: a constant, an array of
# lower rank that broadcasts (it reads the last axis only), and the full grid
_GRID_DATA = {
    "scalar": lambda *xs: 2.5,
    "lower_rank": lambda *xs: np.cos(3.0 * xs[-1]),
    "full": lambda *xs: np.exp(xs[0]) * np.sin(xs[1]) + xs[-1] ** 2,
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("data", list(_GRID_DATA))
def test_grid_values_is_a_per_box_loop(dim, data):
    f = _GRID_DATA[data]
    rng = np.random.default_rng(dim)
    lower, half = rng.uniform(-1.0, 1.0, (4, dim)), 0.375
    nodes = [gauss_rule(3 + k).nodes for k in range(dim)]
    out = grid_values(f, lower, half, nodes)
    assert out.shape == (4,) + tuple(x.size for x in nodes)
    assert out.dtype == float
    for e in range(lower.shape[0]):
        axes = [lower[e, k] + half * (x + 1.0) for k, x in enumerate(nodes)]
        box = np.meshgrid(*axes, indexing="ij")
        ref = np.broadcast_to(np.asarray(f(*box), dtype=float), box[0].shape)
        assert np.array_equal(_bits(out[e]), _bits(ref)), e


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_values_node_minus_one_is_the_box_corner(dim):
    # node -1 on a fixed axis puts every point on the face through the
    # corner, at the corner's coordinate bit for bit: DG's boundary facets
    # and FEM's boundary entities read their data there
    rng = np.random.default_rng(5)
    lower = rng.uniform(-1.0, 1.0, (6, dim)) / 3.0
    for axis in range(dim):
        nodes = [gauss_rule(4).nodes] * dim
        nodes[axis] = np.array([-1.0])
        on_axis = grid_values(lambda *xs: xs[axis], lower, 0.1, nodes)
        want = np.broadcast_to(
            lower[:, axis].reshape((-1,) + (1,) * dim), on_axis.shape)
        assert np.array_equal(_bits(on_axis), _bits(want)), axis


def test_kron_laplacian_is_the_explicit_2d_sum():
    rng = np.random.default_rng(11)
    p = 6
    # a generic pair, and the Legendre pair of the DG volume block:
    # M1 = diag 2 / (2i + 1), K1[i, j] = min(i, j)(min(i, j) + 1), i + j even
    i, j = np.indices((p + 1, p + 1))
    m = np.minimum(i, j)
    legendre = (np.diag(2.0 / (2.0 * np.arange(p + 1) + 1.0)),
                np.where((i + j) % 2 == 0, m * (m + 1.0), 0.0))
    for M1, K1 in [tuple(rng.standard_normal((2, 5, 5))), legendre]:
        explicit = np.kron(K1, M1) + np.kron(M1, K1)
        assert np.array_equal(_bits(kron_laplacian(M1, K1, 2)),
                              _bits(explicit))


@pytest.mark.parametrize("pieces", [(), (3,)], ids=["gauss", "pieces"])
@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_error_sq_is_the_sum_of_squared_partials(dim, pieces):
    rng = np.random.default_rng(dim + len(pieces))
    n, q, half = 4, 5, 0.25
    vals = [rng.standard_normal(pieces + (q, n)) for _ in range(dim)]
    ders = [rng.standard_normal(pieces + (q, n)) for _ in range(dim)]
    coeffs = rng.standard_normal((2,) + (1,) * len(pieces) + (n,) * dim)
    grid = (2,) + pieces + (q,) * dim
    gradient = [rng.standard_normal(grid) for _ in range(dim)]
    out = gradient_error_sq(coeffs, vals, ders, gradient, half)
    ref = 0.0
    for k in range(dim):
        d_k = apply_axes(coeffs, [ders[j] if j == k else vals[j]
                                  for j in range(dim)]) / half
        ref = ref + (gradient[k] - d_k) ** 2
    assert out.shape == grid
    assert np.array_equal(_bits(out), _bits(ref))
