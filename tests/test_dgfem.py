import numpy as np
import pytest

from hpexp import dgfem
from hpexp.harness import fit_slope, run_sweep
from hpexp.indexsets import BasisSpec, dof_count


def _dg_sweep(n, family, p_list, gamma=10.0):
    return run_sweep({"name": "dg", "kind": "dg-sine", "n": n, "family": family,
                      "p_list": p_list, "gamma": gamma})


def _linear():
    g = lambda x, y: 1.0 + 2.0 * x - y
    grad = lambda x, y: (2.0 + 0.0 * x, -1.0 + 0.0 * y)
    return g, grad


def test_spec_validation():
    with pytest.raises(ValueError):
        dgfem.DgSpec("S", 2)
    with pytest.raises(ValueError):
        dgfem.DgSpec("Q", 0)
    with pytest.raises(ValueError):
        dgfem.DgSpec("Q", 2, gamma=0.0)


@pytest.mark.parametrize("family", ["Q", "P"])
def test_linear_consistency(family):
    g, grad = _linear()
    system = dgfem.assemble_sip(4, dgfem.DgSpec(family, 2), lambda x, y: 0.0 * x, g)
    sol = dgfem.dg_solve(system)
    errs = dgfem.dg_errors(sol, g, grad)
    assert errs["l2"] < 1e-10
    assert errs["broken_h1"] < 1e-10
    assert errs["dg_norm"] < 1e-10


def test_system_symmetry():
    system = dgfem.assemble_sip(4, dgfem.DgSpec("P", 3),
                                lambda x, y: np.sin(x + y), lambda x, y: 0.0 * x)
    A = system.matrix
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()


def test_dof_counts():
    recs = _dg_sweep(8, "P", [3])
    assert recs[0].dof == 64 * dof_count(BasisSpec(2, 3, "P")) == 640


def test_interpolant_errors_and_jumps():
    # globally smooth polynomial inside the broken space: all errors vanish
    # and the interior jumps are zero up to roundoff
    g = lambda x, y: (x - 0.3) ** 2 + x * y + 2.0
    grad = lambda x, y: (2.0 * (x - 0.3) + y, x + 0.0 * y)
    spec = dgfem.DgSpec("Q", 2)
    interp = dgfem.broken_interpolant(spec, 4, g)
    errs = dgfem.dg_errors(interp, g, grad)
    assert errs["l2"] < 1e-12 and errs["dg_norm"] < 1e-10


def test_dg_norm_dominates_broken_h1():
    recs = _dg_sweep(4, "Q", [2, 3, 4])
    for r in recs:
        assert r.error("dg_norm") >= r.error("broken_h1")


def test_consistency_residual_of_interpolant():
    """The in-space interpolant of the exact solution nearly solves the SIP
    system: residual bounded by the interpolation-error scale."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi ** 2 * exact(x, y)
    grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    spec = dgfem.DgSpec("Q", 4)
    system = dgfem.assemble_sip(4, spec, f, exact)
    interp = dgfem.broken_interpolant(spec, 4, exact)
    resid = system.matrix @ interp.coeffs.ravel() - system.rhs
    errs = dgfem.dg_errors(interp, exact, grad)
    assert np.linalg.norm(resid) / np.linalg.norm(system.rhs) \
        <= 25.0 * errs["dg_norm"]
    # quasi-optimality: the SIP solution beats the broken L2 interpolant
    sol = dgfem.dg_solve(system)
    assert dgfem.dg_errors(sol, exact, grad)["dg_norm"] <= 1.5 * errs["dg_norm"]


def test_penalty_changes_converged_error_mildly():
    base = _dg_sweep(4, "Q", [8], gamma=10.0)[0].error("dg_norm")
    double = _dg_sweep(4, "Q", [8], gamma=20.0)[0].error("dg_norm")
    assert abs(double - base) / base < 0.2


def test_indefinite_with_tiny_penalty():
    g, _ = _linear()
    system = dgfem.assemble_sip(3, dgfem.DgSpec("Q", 3, gamma=1e-4),
                                lambda x, y: 0.0 * x, g)
    with pytest.raises(dgfem.IndefiniteSipError):
        dgfem.dg_solve(system)
    # a sweep records the failure with its class, NaN errors and dof -1
    rec, = _dg_sweep(2, "Q", [2], gamma=1e-6)
    assert rec.extra["error_class"] == "IndefiniteSipError"
    assert rec.extra["error_message"] and rec.dof == -1
    assert set(rec.errors) == {"l2", "broken_h1", "dg_norm"}
    assert all(np.isnan(v) for v in rec.errors.values())


def test_sweep_records_and_l2_rate():
    recs = _dg_sweep(4, "Q", list(range(2, 8)))
    dg = [r.error("dg_norm") for r in recs]
    l2 = [r.error("l2") for r in recs]
    h1 = [r.error("broken_h1") for r in recs]
    # errors non-increasing in p (recorded; SIP constants vary mildly)
    drops = sum(1 for a, b in zip(dg, dg[1:]) if b <= a)
    assert drops >= len(dg) - 2
    # adjoint consistency: L2 decays at least as fast as broken H1 (recorded)
    slope_l2 = np.log(l2[0] / l2[-1])
    slope_h1 = np.log(h1[0] / h1[-1])
    assert slope_l2 >= slope_h1 * 0.99
    # broken-H1 error decays exponentially in p
    fit = fit_slope(recs, abscissa="p", error_key="broken_h1")
    assert fit.r_squared >= 0.98
