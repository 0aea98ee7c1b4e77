"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1-3 compare against published reference values whose measurement
conventions are partly unreproducible (see /root notes and the repository
README): the tests assert the stated tolerances verbatim and are expected to
be red where the analysis shows the target is unattainable for a faithful
implementation; every probe is printed so the per-row picture is visible.
"""

import numpy as np
import pytest
from scipy.special import gammaln

from hpexp import fem
from hpexp.bounds import lemma_audit, phi, sharp_l2_ratio, stirling_envelope_check
from hpexp.expansion import (differentiate, evaluate, l2_norm, named_function,
                             reference_expansion, weighted_seminorm)
from hpexp.harness import ERROR_FLOOR, fit_slope, ratio_report, run_sweep
from hpexp.orthopoly import gauss_rule, legendre_deriv_table, legendre_table
from hpexp.projections import project_h1_q, project_h1_s, project_l2, projection_errors

TABLE1 = {
    # p: (S_err, S_rate, Q_err, Q_rate, error_ratio)
    1: (2.09e-1, None, 2.09e-1, None, 1.0),
    2: (1.25e-1, 0.7386, 9.62e-2, 1.1204, 1.303),
    3: (1.20e-1, 0.1096, 5.99e-2, 1.1691, 2.0023),
    4: (9.00e-2, 0.9971, 4.23e-2, 1.2087, 2.128),
    5: (6.93e-2, 1.1703, 3.21e-2, 1.2372, 2.16),
    10: (2.96e-2, 1.261, 1.32e-2, 1.2968, 2.2311),
    15: (1.76e-2, 1.2921, 7.79e-3, 1.3143, 2.2558),
    20: (1.21e-2, 1.306, 5.33e-3, 1.3215, 2.2675),
    25: (9.03e-3, 1.3135, 3.97e-3, 1.3251, 2.2741),
}
TABLE_P = [1, 2, 3, 4, 5, 10, 15, 20, 25]


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _projection(dim, kind, function, p_max, margin=20):
    return run_sweep({"name": f"proj_{kind}", "kind": "project-sweep",
                      "proj_kind": kind, "dim": dim, "function": function,
                      "p_min": 2, "p_max": p_max, "margin": margin})


@pytest.fixture(scope="module")
def lshape_sweeps():
    out = {}
    for fam in ("S", "Q"):
        recs = run_sweep({"name": "lshape", "kind": "fem-lshape",
                          "family": fam, "p_list": TABLE_P})
        out[fam] = {r.p: r for r in recs}
    return out


@pytest.fixture(scope="module")
def proj_sweeps():
    out = {}
    for d, pmax in ((2, 20), (3, 12)):
        for kind in ("l2q", "l2p"):
            out[(d, kind)] = _projection(d, kind, "sine", pmax)
    return out


@pytest.fixture(scope="module")
def fem_sine_sweeps():
    return {(d, fam): run_sweep({"name": "sine", "kind": "fem-sine", "dim": d,
                                 "family": fam, "p_list": list(range(2, 13))},
                                stop_below=ERROR_FLOOR)
            for d in (2, 3) for fam in ("Q", "S")}


@pytest.fixture(scope="module")
def dg_sweeps():
    return {
        fam: run_sweep({"name": "dg", "kind": "dg-sine", "n": 8, "family": fam,
                        "p_list": list(range(2, p_max + 1))})
        for fam, p_max in (("Q", 10), ("P", 12))
    }


def test_criterion_1_table1_lshape(lshape_sweeps):
    """Table-1 reproduction: errors within 2%, p-rates within 0.03, S/Q error
    ratio within 0.05, at p in {2,...,25}."""
    rows = []
    ok = True
    for p in TABLE_P[1:]:
        ts, trs, tq, trq, tratio = TABLE1[p]
        es = lshape_sweeps["S"][p].error("h1_semi")
        eq = lshape_sweeps["Q"][p].error("h1_semi")
        rs = lshape_sweeps["S"][p].extra.get("p_rate", float("nan"))
        rq = lshape_sweeps["Q"][p].extra.get("p_rate", float("nan"))
        dev_es, dev_eq = abs(es - ts) / ts, abs(eq - tq) / tq
        dev_rs, dev_rq = abs(rs - trs), abs(rq - trq)
        dev_ratio = abs(es / eq - tratio)
        row_ok = (dev_es <= 0.02 and dev_eq <= 0.02 and dev_rs <= 0.03
                  and dev_rq <= 0.03 and dev_ratio <= 0.05)
        ok &= row_ok
        rows.append(
            f"p={p}: S {es:.4e} ({dev_es * 100:+.1f}%) rate {rs:.4f} "
            f"(d{dev_rs:.3f}) | Q {eq:.4e} ({dev_eq * 100:+.1f}%) rate "
            f"{rq:.4f} (d{dev_rq:.3f}) | ratio {es / eq:.4f} "
            f"(d{dev_ratio:.3f}) -> {'ok' if row_ok else 'OFF'}")
    detail = "fully-resolved errors vs printed table; see decisions ledger\n  " \
        + "\n  ".join(rows)
    assert _report("1 (Table 1 L-shape)", ok, detail), detail


def test_criterion_2_slope_ratio_2d(proj_sweeps):
    """2D L2-projection slope ratio vs sqrt(Dof) for the product sine."""
    fq = fit_slope(proj_sweeps[(2, "l2q")], error_key="l2")
    fp = fit_slope(proj_sweeps[(2, "l2p")], error_key="l2")
    rep = ratio_report(fp, fq)
    # supporting cross-check: a fixed-rate analytic function realizes the
    # theoretical sqrt(2) gain at these degrees
    runge = {k: fit_slope(_projection(2, k, "runge1d-tensor", 20, margin=30),
                          error_key="l2")
             for k in ("l2q", "l2p")}
    runge_ratio = ratio_report(runge["l2p"], runge["l2q"])["ratio"]
    ok = 1.30 <= rep["ratio"] <= 1.45
    detail = (f"sine ratio {rep['ratio']:.4f} (lsq {rep['lsq_ratio']:.4f}, "
              f"ideal {rep['ideal']:.4f}); runge cross-check {runge_ratio:.4f}")
    assert 1.30 <= runge_ratio <= 1.45, "runge cross-check out of window"
    assert _report("2 (2D projection slope ratio)", ok, detail), detail


def test_criterion_3_slope_ratio_3d(proj_sweeps, fem_sine_sweeps):
    """3D slope ratios: projections on the cube and FEM(S)/FEM(Q) on 4^3."""
    fq = fit_slope(proj_sweeps[(3, "l2q")], error_key="l2")
    fp = fit_slope(proj_sweeps[(3, "l2p")], error_key="l2")
    proj_ratio = ratio_report(fp, fq)["ratio"]
    gq = fit_slope(fem_sine_sweeps[(3, "Q")], error_key="h1_semi")
    gs = fit_slope(fem_sine_sweeps[(3, "S")], error_key="h1_semi")
    fem_ratio = ratio_report(gs, gq)["ratio"]
    ok_proj = 1.55 <= proj_ratio <= 1.85
    ok_fem = 1.55 <= fem_ratio <= 1.85
    detail = (f"projection ratio {proj_ratio:.4f} "
              f"({'ok' if ok_proj else 'OFF'}), FEM ratio {fem_ratio:.4f} "
              f"({'ok' if ok_fem else 'OFF'}), ideal 1.8171")
    assert _report("3 (3D slope ratios)", ok_proj and ok_fem, detail), detail


def test_criterion_4_fem_and_dg_ratios(fem_sine_sweeps, dg_sweeps):
    """2D sine on 8x8: FEM(S):FEM(Q) and DGFEM(P):DGFEM(Q) vs sqrt(Dof)."""
    gq = fit_slope(fem_sine_sweeps[(2, "Q")], error_key="h1_semi")
    gs = fit_slope(fem_sine_sweeps[(2, "S")], error_key="h1_semi")
    fem_ratio = ratio_report(gs, gq)["ratio"]
    dq = fit_slope(dg_sweeps["Q"], error_key="dg_norm")
    dp = fit_slope(dg_sweeps["P"], error_key="dg_norm")
    dg_ratio = ratio_report(dp, dq)["ratio"]
    ok_fem = 1.30 <= fem_ratio <= 1.45
    ok_dg = 1.30 <= dg_ratio <= 1.45
    detail = f"FEM(S):FEM(Q) {fem_ratio:.4f}, DGFEM(P):DGFEM(Q) {dg_ratio:.4f}"
    assert _report("4 (2D FEM and DG ratios)", ok_fem and ok_dg, detail), detail


def test_criterion_5_exact_formula_suite():
    """Orthogonality identities, Parseval/weighted-seminorm agreement,
    projection invariants, patch test."""
    # derivative orthogonality to 1e-10 relative
    nmax = 20
    rule = gauss_rule(2 * nmax + 2)
    worst_orth = 0.0
    for k in range(0, nmax + 1, 4):
        tab = legendre_deriv_table(nmax, k, rule.nodes)
        wk = rule.weights * (1.0 - rule.nodes ** 2) ** k
        G = (tab * wk) @ tab.T
        for i in range(k, nmax + 1):
            diag = (2.0 / (2 * i + 1)) * np.exp(gammaln(i + k + 1)
                                                - gammaln(i - k + 1))
            worst_orth = max(worst_orth, abs(G[i, i] - diag) / diag)
            for j in range(k, i):
                worst_orth = max(worst_orth, abs(G[i, j]) / diag)
    # psi orthogonality
    dtab = legendre_deriv_table(nmax, 1, rule.nodes)
    w1 = rule.weights * (1.0 - rule.nodes ** 2)
    worst_psi = 0.0
    for j in range(1, nmax + 1):
        for k2 in range(1, nmax + 1):
            val = np.dot(w1, dtab[j] * dtab[k2]) / (j * (j + 1) * k2 * (k2 + 1))
            expect = 2.0 / (j * (j + 1) * (2 * j + 1)) if j == k2 else 0.0
            scale = 2.0 / (j * (j + 1) * (2 * j + 1))
            worst_psi = max(worst_psi, abs(val - expect) / scale)
    # Parseval and weighted seminorm identity
    u = reference_expansion(named_function("sine", 2), 12)
    qrule = gauss_rule(40)
    tab = legendre_table(u.degrees[0], qrule.nodes)
    vals = tab.T @ u.coeffs @ tab
    W2 = np.outer(qrule.weights, qrule.weights)
    parseval_dev = abs(l2_norm(u) - np.sqrt(np.sum(W2 * vals ** 2)))
    s = 2
    quad_sum = 0.0
    for a1 in range(s + 1):
        a2 = s - a1
        v = u
        for _ in range(a1):
            v = differentiate(v, 0)
        for _ in range(a2):
            v = differentiate(v, 1)
        t1 = legendre_table(v.coeffs.shape[0] - 1, qrule.nodes)
        t2 = legendre_table(v.coeffs.shape[1] - 1, qrule.nodes)
        dv = t1.T @ v.coeffs @ t2
        wgt = (1 - qrule.nodes ** 2)[:, None] ** a1 * (1 - qrule.nodes ** 2)[None, :] ** a2
        quad_sum += np.sum(W2 * wgt * dv ** 2)
    wsem_dev = abs(weighted_seminorm(u, s) - np.sqrt(quad_sum)) \
        / weighted_seminorm(u, s)
    # projection invariants
    p = 8
    res_q = project_h1_q(u, p)
    res_s = project_h1_s(u, p)
    f = named_function("sine", 2)
    corners = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], float)
    vertex_dev = float(np.max(np.abs(evaluate(res_s.projected, corners)
                                     - f.f(corners[:, 0], corners[:, 1]))))
    t = -1.0 + 2.0 * ((0.618033988749895 * np.arange(50)) % 1.0)
    bpts = np.concatenate([np.stack([t, -np.ones(50)], 1),
                           np.stack([t, np.ones(50)], 1),
                           np.stack([-np.ones(50), t], 1),
                           np.stack([np.ones(50), t], 1)])
    from hpexp.expansion import CoeffTensor
    bdiff = float(np.max(np.abs(evaluate(
        CoeffTensor(coeffs=res_q.projected.coeffs - res_s.projected.coeffs),
        bpts))))
    idem = float(np.max(np.abs(
        project_h1_q(res_q.projected, p).projected.coeffs
        - res_q.projected.coeffs)))
    repro = projection_errors(res_q.projected,
                              project_l2(res_q.projected, "Q", p), margin=0)
    # patch test
    mesh = fem.mesh_uniform(2, 4)
    dm = fem.build_dofmap(mesh, 1, "Q")
    g = lambda x, y: 0.5 - x + 2 * y + 0.75 * x * y
    system = fem.assemble_poisson(mesh, dm, lambda x, y: 0.0 * x * y, g)
    sol = fem.condense_solve(system, dm)
    patch_dev = float(np.max(np.abs(sol.values
                                    - g(mesh.vertices[:, 0], mesh.vertices[:, 1]))))
    ok = (worst_orth < 1e-10 and worst_psi < 1e-10 and parseval_dev < 1e-8
          and wsem_dev < 1e-8 and vertex_dev < 1e-10 and bdiff < 1e-10
          and idem < 1e-10 and repro.l2 < 1e-10 and patch_dev < 1e-11)
    detail = (f"orth {worst_orth:.1e}, psi-orth {worst_psi:.1e}, parseval "
              f"{parseval_dev:.1e}, weighted-id {wsem_dev:.1e}, vertex "
              f"{vertex_dev:.1e}, boundary {bdiff:.1e}, idempotence "
              f"{idem:.1e}, reproduction {repro.l2:.1e}, patch {patch_dev:.1e}")
    assert _report("5 (exact-formula suite)", ok, detail), detail


def test_criterion_6_bound_audits():
    """Lemma lattice audit (with its known violation), sharp per-mode grid
    bound, derived values, Stirling envelope."""
    eq = lemma_audit(2, 2, 2)
    viol = lemma_audit(2, 4, 2)
    ok = (abs(eq.lattice_max - 0.25) < 1e-13 and eq.holds
          and abs(viol.lattice_max - 1.0 / 24.0) < 1e-13
          and abs(viol.phi_value - 1.0 / 36.0) < 1e-13 and not viol.holds)
    for M in range(0, 21):
        for m in range(0, M + 1):
            rep = lemma_audit(1, M, m)
            ok &= rep.holds and abs(rep.lattice_max - rep.phi_value) \
                <= 1e-12 * rep.phi_value
    grid_ok = True
    for d in (2, 3):
        for p in range(1, 13):
            for s in range(0, min(p + 1, 4) + 1):
                r = sharp_l2_ratio(d, p, s)["max_ratio"]
                grid_ok &= r <= phi(d, p + 1, s) * (1 + 1e-12)
    vals_ok = (abs(sharp_l2_ratio(2, 1, 1)["max_ratio"] - 0.25) < 1e-13
               and abs(sharp_l2_ratio(2, 9, 1)["max_ratio"] - 1 / 60) < 1e-14)
    stirling_ok = all(stirling_envelope_check(d, m, n)
                      for d in (1, 2, 3) for m in range(1, 31)
                      for n in range(1, m + 1))
    ok = ok and grid_ok and vals_ok and stirling_ok
    detail = (f"lemma cases ok, d=1 equality ok, grid {'ok' if grid_ok else 'OFF'}, "
              f"derived values {'ok' if vals_ok else 'OFF'}, stirling "
              f"{'ok' if stirling_ok else 'OFF'}")
    assert _report("6 (bound audits)", ok, detail), detail


def test_criterion_7_exponential_sanity(proj_sweeps, fem_sine_sweeps, dg_sweeps):
    """Every sine projection/solver error sequence fits an exponential vs p
    with r^2 >= 0.98 over the non-plateau window."""
    seqs = {}
    for key, recs in proj_sweeps.items():
        seqs[f"proj_{key[1]}_{key[0]}d"] = (recs, "l2")
    for (d, fam), recs in fem_sine_sweeps.items():
        seqs[f"fem_{fam}_{d}d"] = (recs, "h1_semi")
    for fam, recs in dg_sweeps.items():
        seqs[f"dg_{fam}"] = (recs, "dg_norm")
    rows, ok = [], True
    for name, (recs, key) in sorted(seqs.items()):
        fit = fit_slope(recs, abscissa="p", error_key=key)
        good = fit.r_squared >= 0.98
        ok &= good
        rows.append(f"{name}: r2={fit.r_squared:.4f} "
                    f"({'ok' if good else 'OFF'})")
    detail = "; ".join(rows)
    assert _report("7 (exponential sanity)", ok, detail), detail
