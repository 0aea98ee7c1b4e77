import numpy as np
import pytest

from hpexp.bounds import phi
from hpexp.expansion import (CoeffTensor, _derivative, evaluate, l2_norm,
                             named_function, reference_expansion,
                             sobolev_seminorm)
from hpexp.harness import run_sweep
from hpexp.orthopoly import gauss_rule, legendre_table, psi_table
from hpexp.projections import (audit_h1s_bounds, project_h1_p, project_h1_q,
                               project_h1_s, project_l2, projection_errors,
                               _axis_maps, _project_h1)


@pytest.fixture(scope="module")
def sine2d():
    return reference_expansion(named_function("sine", 2), 16)


@pytest.fixture(scope="module")
def expsum3d():
    return reference_expansion(named_function("expsum", 3), 9, margin=14)


def _corners(d):
    from itertools import product
    return np.array(list(product((-1.0, 1.0), repeat=d)))


# ---------------------------------------------------------------------------
# L2 projections


def test_l2_projection_reproduces_total_degree(sine2d):
    rng = np.random.default_rng(0)
    c = np.zeros((5, 5))
    for i in range(5):
        for j in range(5 - i):
            c[i, j] = rng.standard_normal()
    u = CoeffTensor(coeffs=np.pad(c, ((0, 6), (0, 6))))
    res = project_l2(u, "P", 4)
    assert np.max(np.abs(res.projected.coeffs - c)) == 0.0


def test_l2q_single_excluded_mode():
    p = 1
    c = np.zeros((p + 4, p + 4))
    c[p + 1, 0] = 1.0
    u = CoeffTensor(coeffs=c)
    err = projection_errors(u, project_l2(u, "Q", p), margin=3)
    assert err.l2 == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-14)


def test_l2p_drops_cross_mode():
    c = np.zeros((6, 6))
    c[1, 1] = 1.0              # u = x1 x2
    u = CoeffTensor(coeffs=c)
    res = project_l2(u, "P", 1)
    assert np.max(np.abs(res.projected.coeffs)) == 0.0
    err = projection_errors(u, res, margin=4)
    assert err.l2 == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_l2_idempotent_and_linear(sine2d):
    u = sine2d
    for fam in ("Q", "P"):
        once = project_l2(u, fam, 6)
        twice = project_l2(once.projected, fam, 6)
        assert np.max(np.abs(twice.projected.coeffs
                             - once.projected.coeffs)) < 1e-11
    v = reference_expansion(named_function("expsum", 2), 16)
    combo = CoeffTensor(coeffs=2.0 * u.coeffs + 3.0 * v.coeffs)
    lhs = project_l2(combo, "P", 6).projected.coeffs
    rhs = (2.0 * project_l2(u, "P", 6).projected.coeffs
           + 3.0 * project_l2(v, "P", 6).projected.coeffs)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_l2_errors_monotone_in_p(sine2d):
    for fam in ("Q", "P"):
        errs = [projection_errors(sine2d, project_l2(sine2d, fam, p)).l2
                for p in range(4, 13)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))


def test_l2_nesting_inequalities(sine2d):
    for p in (4, 6, 8, 10):
        eq = projection_errors(sine2d, project_l2(sine2d, "Q", p)).l2
        ep = projection_errors(sine2d, project_l2(sine2d, "P", p)).l2
        assert eq <= ep * (1 + 1e-12)
        eq_half = projection_errors(sine2d, project_l2(sine2d, "Q", p // 2)).l2
        assert ep <= eq_half * (1 + 1e-12)


# ---------------------------------------------------------------------------
# H1 projections: construction oracles


def test_h1_axis_matrix_reproduces_low_degree():
    R, T = _axis_maps(5, 12)
    M = T @ R
    assert np.allclose(M[:, :6], np.eye(6), atol=1e-13)


def test_h1q_matches_integral_construction_2d():
    """Cross-check the coefficient-space construction against direct
    quadrature of the defining integrals (corner value, edge derivative
    moments, mixed-derivative moments)."""
    p = 5
    f = named_function("expsum", 2)
    u = reference_expansion(f, p + 10)
    res = project_h1_q(u, p)

    rule = gauss_rule(40)
    x = rule.nodes
    w = rule.weights
    L = legendre_table(p - 1, x)
    e = np.exp(x)
    # mixed derivative of exp(x+y) is exp(x)exp(y): a_{ij} factorizes
    mom = L @ (w * e) * (2 * np.arange(p) + 1) / 2.0
    A = np.outer(mom, mom)
    # edge derivative data at y=-1 / x=-1: d/dx exp(x-1) = exp(x) e^{-1}
    b = mom * np.exp(-1.0)
    corner = np.exp(-2.0)

    Psi = psi_table(p - 1, x)
    vals = (Psi.T @ A @ Psi
            + np.outer(Psi.T @ b, np.ones_like(x) * 1.0)
            + np.outer(np.ones_like(x), Psi.T @ b)
            + corner)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    got = evaluate(res.projected, pts).reshape(x.size, x.size)
    assert np.max(np.abs(got - vals)) < 1e-10


def test_h1q_reproduces_q_space():
    rng = np.random.default_rng(5)
    p = 6
    c = np.zeros((p + 9, p + 9))
    c[:p + 1, :p + 1] = rng.standard_normal((p + 1, p + 1))
    u = CoeffTensor(coeffs=c)
    res = project_h1_q(u, p)
    assert np.max(np.abs(res.projected.coeffs - c[:p + 1, :p + 1])) < 1e-10


def test_h1q_vertex_reproduction(sine2d):
    f = named_function("sine", 2)
    res = project_h1_q(sine2d, 8)
    pts = _corners(2)
    assert np.max(np.abs(evaluate(res.projected, pts)
                         - f.f(pts[:, 0], pts[:, 1]))) < 1e-10


def _sq(u, *alpha):
    return l2_norm(_derivative(u, alpha)) ** 2


def _h1q_bound(u, p, s, norm):
    """The squared-error bound of the tensor H1 projection onto Q_p, 2D L2
    and 3D L2/H1: the first term of ``h1s_bound``, written out."""
    pp = p * (p + 1)
    if u.dim == 2:
        return (2.0 / pp * phi(1, p, s) * (_sq(u, s + 1) + 2.0 * _sq(u, 0, s + 1))
                + 4.0 / pp ** 2 * phi(1, p, s - 1) * _sq(u, 1, s))
    ax = _sq(u, s + 1) + _sq(u, 0, s + 1) + _sq(u, 0, 0, s + 1)
    triple = _sq(u, 1, 1, s - 1)
    if norm == "l2":
        mixed = _sq(u, 1, s) + _sq(u, 1, 0, s) + _sq(u, 0, 1, s)
        return (8.0 / pp * phi(1, p, s) * ax
                + 8.0 / pp ** 2 * phi(1, p, s - 1) * mixed
                + 8.0 / pp ** 3 * phi(1, p, s - 2) * triple)
    mixed = sum(_sq(u, *a) for a in ((1, s), (0, 1, s), (s, 0, 1), (1, 0, s),
                                     (s, 1), (0, s, 1)))
    return (2.0 * phi(1, p, s) * ax
            + 8.0 / pp * phi(1, p, s - 1) * mixed
            + 8.0 / pp ** 2 * phi(1, p, s - 2) * 3.0 * triple)


def test_h1q_l2_error_below_bound(sine2d):
    p, s = 8, 3
    err = projection_errors(sine2d, project_h1_q(sine2d, p))
    assert err.l2 ** 2 <= _h1q_bound(sine2d, p, s, "l2")


def test_h1s_boundary_coincidence(sine2d):
    """pi_Q u - pi_S u vanishes on the whole boundary of the square,
    sampled on a 200-point low-discrepancy boundary set."""
    p = 8
    dq = project_h1_q(sine2d, p).projected.coeffs
    ds = project_h1_s(sine2d, p).projected.coeffs
    diff = CoeffTensor(coeffs=dq - ds)
    t = -1.0 + 2.0 * ((0.618033988749895 * np.arange(50)) % 1.0)
    pts = np.concatenate([
        np.stack([t, -np.ones(50)], axis=1),
        np.stack([t, np.ones(50)], axis=1),
        np.stack([-np.ones(50), t], axis=1),
        np.stack([np.ones(50), t], axis=1)])
    assert pts.shape[0] == 200
    assert np.max(np.abs(evaluate(diff, pts))) < 1e-10
    # vertices of the S projection match u exactly
    f = named_function("sine", 2)
    corners = _corners(2)
    assert np.max(np.abs(evaluate(CoeffTensor(coeffs=ds), corners)
                         - f.f(corners[:, 0], corners[:, 1]))) < 1e-10


def test_h1s_reproduces_serendipity_member():
    # build u from psi-blocks within the serendipity budget, then project
    p = 6
    rng = np.random.default_rng(9)
    from hpexp.projections import _psi_to_legendre_matrix
    T = _psi_to_legendre_matrix(p)
    B = np.zeros((p + 1, p + 1))
    B[0:2, :] = rng.standard_normal((2, p + 1))
    B[:, 0:2] = rng.standard_normal((p + 1, 2))
    for m1 in range(2, p + 1):
        for m2 in range(2, p + 1):
            if (m1 - 1) + (m2 - 1) <= p - 2:
                B[m1, m2] = rng.standard_normal()
    c = T @ B @ T.T
    u = CoeffTensor(coeffs=np.pad(c, ((0, 8), (0, 8))))
    res = project_h1_s(u, p)
    assert np.max(np.abs(res.projected.coeffs - c)) < 1e-10


def test_h1_rejects_underresolved_reference():
    u = reference_expansion(named_function("sine", 2), 2, margin=4)
    with pytest.raises(ValueError):
        project_h1_q(u, 10)


def test_h1s_minimum_degree_enforced():
    u = reference_expansion(named_function("sine", 2), 8)
    with pytest.raises(ValueError):
        project_h1_s(u, 3)
    u3 = reference_expansion(named_function("sine", 3), 7, margin=8)
    with pytest.raises(ValueError):
        project_h1_s(u3, 5)


def test_h1p_delegates_and_reproduces(sine2d):
    res_p = project_h1_p(sine2d, 5)
    res_s = project_h1_s(sine2d, 4)
    assert np.max(np.abs(res_p.projected.coeffs - res_s.projected.coeffs)) == 0.0
    assert res_p.p == 5
    with pytest.raises(ValueError):
        project_h1_p(sine2d, 4)
    f = named_function("sine", 2)
    pts = _corners(2)
    assert np.max(np.abs(evaluate(res_p.projected, pts)
                         - f.f(pts[:, 0], pts[:, 1]))) < 1e-10


def test_h1_projection_idempotence_and_linearity(sine2d):
    p = 8
    for op, q in ((project_h1_q, p), (project_h1_s, p), (project_h1_p, p)):
        once = op(sine2d, q)
        twice = op(once.projected, q)
        assert np.max(np.abs(twice.projected.coeffs
                             - once.projected.coeffs)) < 1e-11
    v = reference_expansion(named_function("expsum", 2), 16)
    for op in (project_h1_q, project_h1_s, project_h1_p):
        combo = CoeffTensor(coeffs=1.5 * sine2d.coeffs - 2.0 * v.coeffs)
        lhs = op(combo, p).projected.coeffs
        rhs = (1.5 * op(sine2d, p).projected.coeffs
               - 2.0 * op(v, p).projected.coeffs)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_3d_edge_coincidence(expsum3d):
    """In 3D the Q-S difference vanishes on the twelve edges (face and
    interior modes both carry at least one boundary-vanishing factor there)."""
    p = 7
    dq = project_h1_q(expsum3d, p).projected.coeffs
    ds = project_h1_s(expsum3d, p).projected.coeffs
    diff = CoeffTensor(coeffs=dq - ds)
    t = np.linspace(-1, 1, 17)
    pts = []
    for axis in range(3):
        for b1 in (-1.0, 1.0):
            for b2 in (-1.0, 1.0):
                col = [None, None, None]
                others = [k for k in range(3) if k != axis]
                col[axis] = t
                col[others[0]] = np.full_like(t, b1)
                col[others[1]] = np.full_like(t, b2)
                pts.append(np.stack(col, axis=1))
    pts = np.concatenate(pts)
    assert np.max(np.abs(evaluate(diff, pts))) < 1e-9


def test_appendix_pair_identity(expsum3d):
    """The partial composition minus the fiber-wise 2D serendipity projection
    equals the cross-face excess block, computed here from the defining
    quadrature moments of exp(x1+x2+x3)."""
    p = 7
    u = expsum3d
    lhs = _project_h1(u, p, (0, 1), False).coeffs \
        - _project_h1(u, p, (0, 1), True).coeffs

    # independent construction by quadrature: psi-pair blocks with
    # pair totals >= p-1 built from a_{i1 i2 i3} and b_{i1 i2} moments
    rule = gauss_rule(40)
    x, w = rule.nodes, rule.weights
    L = legendre_table(p - 1, x)
    e = np.exp(x)
    mom = L @ (w * e) * (2 * np.arange(p) + 1) / 2.0   # 1D derivative moments
    m_ref = u.degrees[2]
    Lref = legendre_table(m_ref, x)
    mom3 = Lref @ (w * e) * (2 * np.arange(m_ref + 1) + 1) / 2.0
    from hpexp.projections import _psi_to_legendre_matrix
    T = _psi_to_legendre_matrix(p)
    Tpsi_only = T[:, 1:]     # columns psi_0 .. psi_{p-1}
    rhs = np.zeros((p + 1, p + 1, m_ref + 1))
    for i1 in range(1, p):
        for i2 in range(1, p):
            if i1 + i2 < p - 1:
                continue
            # sum_{i3} a_{i1 i2 i3} psi_{i3}(x3) + b_{i1 i2}, as Legendre in x3
            z = np.zeros(m_ref + 1)
            psi_t = _psi_to_legendre_matrix(m_ref)[:, 1:]
            a_i3 = mom3[:m_ref]                    # psi_0..psi_{m_ref-1} slots
            z += psi_t[:, 1:] @ (mom[i1] * mom[i2] * a_i3[1:])
            z += psi_t[:, 0] * (mom[i1] * mom[i2] * a_i3[0])
            z[0] += mom[i1] * mom[i2] * np.exp(-1.0)   # b block (face at x3=-1)
            rhs += np.einsum("a,b,c->abc", Tpsi_only[:, i1], Tpsi_only[:, i2], z)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_projection_errors_own_space(sine2d):
    res = project_l2(sine2d, "Q", 8)
    inner = projection_errors(res.projected,
                              project_l2(res.projected, "Q", 8), margin=0)
    assert inner.l2 < 1e-10 and inner.h1_semi < 1e-10


_KINDS = {"l2q": lambda u, p: project_l2(u, "Q", p),
          "l2p": lambda u, p: project_l2(u, "P", p),
          "h1q": project_h1_q, "h1s": project_h1_s, "h1p": project_h1_p}


def _explicit_errors(u, res):
    """``l2_norm`` and ``sobolev_seminorm(., 1)`` of the full difference
    tensor."""
    diff = u.coeffs.copy()
    diff[tuple(slice(0, n) for n in res.projected.coeffs.shape)] \
        -= res.projected.coeffs
    dt = CoeffTensor(coeffs=diff)
    return l2_norm(dt), sobolev_seminorm(dt, 1)


def _assert_errors_match(u, res, margin):
    err = projection_errors(u, res, margin=margin)
    l2, h1 = _explicit_errors(u, res)
    assert abs(err.l2 - l2) <= 1e-14 * l2
    assert abs(err.h1_semi - h1) <= 1e-14 * h1


def test_projection_errors_l2_is_l2_norm_of_difference(sine2d, expsum3d):
    # the outer-shell tables plus the low block give l2_norm and
    # sobolev_seminorm(., 1) of a - P to 1e-14 relative, for every kind at every degree
    # of a 2D and a 3D sweep; near the top the margin is 0, and at p = N - 1
    # the block is the whole tensor (q = N)
    for kind, project in _KINDS.items():
        for u in (sine2d, expsum3d):
            n = u.coeffs.shape[0]
            for p in range(n):
                try:
                    res = project(u, p)
                except ValueError:
                    continue
                assert res.projected.coeffs.shape[0] == (
                    p + 2 - u.dim if kind == "h1p" else p + 1)
                _assert_errors_match(u, res, 4 if p + 4 < n else 0)
            if kind != "h1p":
                assert res.projected.coeffs.shape[0] == n
    # q = 1: the block is the constant mode alone
    for family in ("Q", "P"):
        res = project_l2(expsum3d, family, 0)
        assert res.projected.coeffs.shape == (1, 1, 1)
        _assert_errors_match(expsum3d, res, 4)


def test_block_tail_sums_bitwise_equal_to_full_difference(monkeypatch,
                                                         expsum3d):
    # the block's tail sums run along the lanes of a - P through the block,
    # so they are the tail sums of the full difference tensor, bit for bit
    import hpexp.projections as projections
    from hpexp.expansion import _tail_sums
    u = reference_expansion(named_function("runge1d-tensor", 2), 20, margin=6)
    seen = []
    monkeypatch.setattr(projections, "_tail_sums",
                        lambda a, k: seen.append((k, _tail_sums(a, k)))
                        or seen[-1][1])
    for ref in (u, expsum3d):
        d, n = ref.dim, ref.coeffs.shape[0]
        for res in [project_l2(ref, "P", p) for p in (0, 1, 7, n - 2, n - 1)] \
                + [project_h1_q(ref, p) for p in (1, 5, n - 1)] \
                + [project_h1_s(ref, 6), project_h1_p(ref, 9)]:
            projections.projection_errors(ref, res, margin=0)
            q = res.projected.coeffs.shape[0]
            diff = ref.coeffs.copy()
            diff[(slice(0, q),) * d] -= res.projected.coeffs
            block = [(k, t) for k, t in seen if t.shape == tuple(
                n - 1 if j == k else q for j in range(d))]
            assert len(block) == d
            for k, t in block:
                low = (slice(0, q),) * k + (slice(0, q - 1),)
                full = _tail_sums(diff, k)[low + (slice(0, q),) * (d - 1 - k)]
                assert np.ascontiguousarray(t[low]).tobytes() == full.tobytes()
            seen.clear()


def test_l2q_errors_exactly_non_increasing(sine2d, expsum3d):
    # Pi_Q leaves b = 0 in the block, so l2 is the outer-shell table entry,
    # a sum of non-negative shells from the outermost inwards
    rng = np.random.default_rng(3)
    noise = CoeffTensor(coeffs=rng.standard_normal((12, 12, 12)))
    for u in (sine2d, expsum3d, noise):
        errs = [projection_errors(u, project_l2(u, "Q", p), margin=0).l2
                for p in range(u.coeffs.shape[0])]
        assert errs[-1] == 0.0
        assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_projection_sweep_builds_error_tables_once(monkeypatch):
    import hpexp.expansion as expansion
    from hpexp.harness import run_sweep
    built = []
    real = expansion._build_outer_tables

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(expansion, "_build_outer_tables", counting)
    sweeps = [{"name": f"s{dim}{kind}", "kind": "project-sweep",
               "proj_kind": kind, "dim": dim, "p_min": 6, "p_max": 9,
               "margin": 6} for dim in (2, 3) for kind in ("h1s", "l2q")]
    for sw in sweeps:
        assert len(run_sweep(sw)) == 4
    # one reference tensor per sweep, each tabulated once for its 4 degrees
    assert len(built) == len(sweeps)
    assert len({id(a) for a in built}) == len(sweeps)


def _bits(records):
    return [(r.method, r.p, r.dim, r.dof, r.extra,
             {k: float(v).hex() for k, v in r.errors.items()})
            for r in records]


def test_config_of_projection_sweeps_builds_one_reference_per_dim(
        monkeypatch, tmp_path):
    # the four sweeps above in one config: the two kinds of a dim share its
    # reference and tables, and every record is bitwise the one run_sweep gives
    import hpexp.expansion as expansion
    from hpexp.harness import run_config
    sweeps = [{"name": f"s{dim}{kind}", "kind": "project-sweep",
               "proj_kind": kind, "dim": dim, "p_min": 6, "p_max": 9,
               "margin": 6} for dim in (2, 3) for kind in ("h1s", "l2q")]
    alone = {sw["name"]: _bits(run_sweep(sw)) for sw in sweeps}
    built = []
    real = expansion._build_outer_tables

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(expansion, "_build_outer_tables", counting)
    out = run_config({"sweeps": sweeps}, tmp_path)
    assert [a.shape for a in built] == [(16, 16), (16, 16, 16)]
    assert {name: _bits(recs) for name, recs in out.items()} == alone


def test_references_of_one_shape_never_share_tables():
    rng = np.random.default_rng(5)
    u = CoeffTensor(coeffs=rng.standard_normal((14, 14, 14)))
    v = CoeffTensor(coeffs=rng.standard_normal((14, 14, 14)))
    w = CoeffTensor(coeffs=u.coeffs.copy())
    for ref in (u, v, w, u, v):
        for p in (3, 9):
            _assert_errors_match(ref, project_h1_q(ref, p), 4)
    tables = [ref.cache for ref in (u, v, w)]
    assert all(len(c) == 1 for c in tables)
    assert len({id(next(iter(c.values()))) for c in tables}) == 3


def _deriv_coeff_loop(p_rows, m_src):
    """D[j, i] = coefficient of L_j in (L_i)' as a double loop (bitwise
    reference for the derivative rows of ``_axis_maps``)."""
    D = np.zeros((p_rows, m_src + 1))
    for j in range(p_rows):
        for i in range(j + 1, m_src + 1):
            if (i - j) % 2 == 1:
                D[j, i] = 2 * j + 1
    return D


def test_deriv_coeff_matrix_bitwise_equal_to_loop():
    # an H1 projection exists only for 1 <= p <= m
    sizes = [(p, m) for p in range(1, 9) for m in range(p, 13)]
    for p, m in sizes + [(24, 54)]:
        new = _axis_maps(p, m)[0][1:]
        old = _deriv_coeff_loop(p, m)
        assert new.shape == old.shape and new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()
    for p, m in ((0, 3), (4, 3)):
        with pytest.raises(ValueError):
            _axis_maps(p, m)


def test_proj_sweep_builds_each_axis_map_pair_once():
    _axis_maps.cache_clear()
    for kind in ("h1q", "h1s", "h1p"):
        for dim, p_max in ((2, 12), (3, 8)):
            run_sweep({"name": "s", "kind": "project-sweep", "proj_kind": kind,
                       "dim": dim, "p_min": 0, "p_max": p_max})
    info = _axis_maps.cache_info()
    # (p, reference degree p_max + 20): h1q builds p = 1..p_max, and h1s
    # and h1p only degrees h1q has built
    assert info.misses == info.currsize == 12 + 8
    assert info.hits > info.misses
    R, T = _axis_maps(5, 28)
    assert _axis_maps(5, 28)[0] is R
    for mat in (R, T):
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_projection_errors_requires_margin(sine2d):
    # sine2d carries degree 36; p = 35 leaves less than the trusted margin
    with pytest.raises(ValueError):
        projection_errors(sine2d, project_l2(sine2d, "Q", 35), margin=4)


def test_h1s_bound_threshold_recorded(sine2d):
    rep = audit_h1s_bounds(sine2d, range(4, 11), norm="l2")
    assert rep["smallest_p_holding"] is not None
    assert rep["smallest_p_holding"] <= 10


def test_h1q_3d_error_below_bound(expsum3d):
    p, s = 7, 2
    err = projection_errors(expsum3d, project_h1_q(expsum3d, p))
    assert err.l2 ** 2 <= _h1q_bound(expsum3d, p, s, "l2")
    assert err.h1_semi ** 2 <= _h1q_bound(expsum3d, p, s, "h1")


def test_h1s_3d_bound_thresholds(expsum3d):
    for norm in ("l2", "h1"):
        rep = audit_h1s_bounds(expsum3d, range(6, 10), norm=norm)
        assert rep["smallest_p_holding"] is not None
        assert rep["smallest_p_holding"] <= 9
        # the composite right-hand side dominates once it holds at all
        held = [row for row in rep["rows"] if row["p"] >= rep["smallest_p_holding"]]
        assert all(row["lhs"] <= row["rhs"] for row in held)


@pytest.mark.parametrize("norm", ["l2", "h1"])
@pytest.mark.parametrize("d", [2, 3])
def test_h1s_audit_on_sine(d, norm):
    # the bound holds from the least admissible degree, 4 in 2D and 6 in 3D
    p_min = 4 if d == 2 else 6
    u = reference_expansion(named_function("sine", d), 12)
    rep = audit_h1s_bounds(u, range(p_min, 13), norm=norm)
    assert rep["kind"] == f"h1s_{norm}_{d}d" and rep["s"] == d - 1
    assert rep["smallest_p_holding"] == p_min
    assert [row["p"] for row in rep["rows"]] == list(range(p_min, 13))
    for row in rep["rows"]:
        assert all(np.isfinite(v) and v > 0 for v in (row["lhs"], row["rhs"]))
        assert row["lhs"] <= row["rhs"], row
