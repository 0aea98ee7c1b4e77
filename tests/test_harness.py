import argparse
import json
import os
import platform
import weakref

import numpy as np
import pytest
import scipy

from hpexp import blas, cli, expansion, fem, harness
from hpexp.bounds import LEMMA_AUDIT_CAP
from hpexp.cli import main as cli_main
from hpexp.orthopoly import graded_rule
from hpexp.harness import (ConfigError, ConvergenceRecord, ERROR_FLOOR, Solver,
                           _lemma_records, _lshape_meta, _validated_sweeps,
                           _with_p_rate, fit_slope, ratio_report,
                           records_from_csv, records_to_csv, run_config,
                           run_sweep, sweep, write_records)
from graded_reference import TABLE1


def _rec(method, p, dim, dof, err):
    return ConvergenceRecord(method=method, p=p, dim=dim, dof=dof,
                             errors={"l2": err})


def test_fit_slope_exact_exponential_vs_p():
    recs = [_rec("m", p, 2, (p + 1) ** 2, np.exp(-2.0 * p)) for p in range(2, 12)]
    fit = fit_slope(recs, abscissa="p")
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.lsq_slope == pytest.approx(2.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_exact_exponential_vs_dof_root():
    C, b = 3.0, 0.8
    recs = [_rec("m", p, 2, (p + 1) ** 2, C * np.exp(-b * (p + 1)))
            for p in range(2, 14)]
    fit = fit_slope(recs, abscissa="dof_root")
    assert fit.slope == pytest.approx(b, rel=1e-10)
    assert fit.lsq_slope == pytest.approx(b, rel=1e-10)


def test_fit_slope_windowed_vs_lsq_agreement():
    rng = np.random.default_rng(1)
    recs = [_rec("m", p, 2, (p + 1) ** 2,
                 np.exp(-1.5 * p) * (1 + 1e-3 * rng.standard_normal()))
            for p in range(2, 14)]
    fit = fit_slope(recs, abscissa="p")
    assert abs(fit.slope - fit.lsq_slope) / fit.lsq_slope < 0.03


def test_fit_slope_excludes_floor_and_plateau():
    errs = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 3e-12, 2.5e-12, 3.1e-12]
    recs = [_rec("m", p, 2, (p + 1) ** 2, e) for p, e in enumerate(errs, start=2)]
    fit = fit_slope(recs, abscissa="p")
    # the flat 3e-12 tail is dropped; the window ends on the last two real
    # segments (one full decade pair, one partial into the 3e-12 point)
    expect = 0.5 * (np.log(100.0) + np.log(1e-10 / 3e-12))
    assert fit.slope == pytest.approx(expect, rel=1e-9)
    assert fit.n_points == 6
    # errors at the floor itself are excluded entirely
    recs2 = recs[:-3] + [_rec("m", 9, 2, 100, 5e-13)]
    fit2 = fit_slope(recs2, abscissa="p")
    assert fit2.n_points == 5
    assert fit2.slope == pytest.approx(np.log(100.0), rel=1e-9)


def test_fit_slope_rejects_nonpositive():
    recs = [_rec("m", 2, 2, 9, -1.0), _rec("m", 3, 2, 16, 0.5),
            _rec("m", 4, 2, 25, 0.1)]
    with pytest.raises(ValueError):
        fit_slope(recs, abscissa="p")


def test_fit_slope_needs_enough_points():
    recs = [_rec("m", 2, 2, 9, 1e-13), _rec("m", 3, 2, 16, 1e-14),
            _rec("m", 4, 2, 25, 1e-15)]
    assert all(r.error("l2") < ERROR_FLOOR for r in recs)
    with pytest.raises(ValueError):
        fit_slope(recs, abscissa="p")


def _exact_zero_tail():
    return [_rec("m", p, 2, (p + 1) ** 2, err)
            for p, err in enumerate([1e-1, 1e-2, 1e-3, 1e-4, 0.0, 0.0], 2)]


def test_fit_slope_rejects_negative_floor():
    # exact zeros fall below the fixed floor and never reach np.log
    assert fit_slope(_exact_zero_tail(), abscissa="p").n_points == 4


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_records_from_csv_rejects_empty_text(text):
    with pytest.raises(ValueError, match="empty"):
        records_from_csv(text)


def test_ratio_report():
    recs = [_rec("a", p, 2, (p + 1) ** 2, np.exp(-1.4 * (p + 1)))
            for p in range(2, 12)]
    fit = fit_slope(recs)
    rep = ratio_report(fit, fit)
    assert rep["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rep["ideal"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    recs3 = [_rec("a", p, 3, (p + 1) ** 3, np.exp(-1.4 * (p + 1)))
             for p in range(2, 12)]
    rep3 = ratio_report(fit_slope(recs3), fit_slope(recs3))
    assert rep3["ideal"] == pytest.approx(6.0 ** (1.0 / 3.0), rel=1e-12)
    fit_p = fit_slope(recs, abscissa="p")
    with pytest.raises(ValueError, match="abscissae"):
        ratio_report(fit, fit_p)
    # the ideal is that of one dimension: a 2D fit against a 3D one has none
    for a, b in ((fit, fit_slope(recs3)), (fit_slope(recs3), fit)):
        with pytest.raises(ValueError, match="dimensions"):
            ratio_report(a, b)


def test_csv_round_trip_and_determinism():
    recs = [ConvergenceRecord(method="m", p=p, dim=2, dof=(p + 1) ** 2,
                              errors={"l2": np.exp(-p) * np.pi,
                                      "h1_semi": np.exp(-p) * 7.1},
                              extra={"p_rate": 1.23456789012345})
            for p in range(2, 9)]
    text = records_to_csv(recs)
    assert text == records_to_csv(recs)          # byte-identical
    back = records_from_csv(text)
    for a, b in zip(recs, back):
        assert a.method == b.method and a.p == b.p and a.dof == b.dof
        for k in a.errors:
            assert b.errors[k] == pytest.approx(a.errors[k], rel=1e-14)
        assert b.extra["p_rate"] == pytest.approx(a.extra["p_rate"], rel=1e-14)


def test_basis_count_table():
    recs = run_sweep({"name": "counts", "kind": "basis-count", "dim": 3,
                      "family": "S", "p_max": 6})
    assert (recs[0].p, recs[0].dof) == (1, 8)
    assert (recs[-1].p, recs[-1].dof) == (6, 105)


def test_sweep_records_failures_and_skips():
    def solve_one(p):
        if p == 3:
            raise fem.RefinementError("stub")
        return (p + 1) ** 2, {"h1_semi": float(p) ** -1.5}, {}

    solver = Solver("fem_q", 2, ("h1_semi",), solve_one)
    recs = _with_p_rate(sweep(solver, [1, 2, 3, 4, 5]))
    failed = recs[2]
    assert failed.dof == -1 and np.isnan(failed.error("h1_semi"))
    assert failed.extra == {"error_class": "RefinementError",
                            "error_message": "stub"}
    # the rate needs two consecutive solved degrees: none across p = 3
    assert ["p_rate" in r.extra for r in recs] == [False, True, False, False, True]
    assert recs[4].extra["p_rate"] == pytest.approx(1.5, rel=1e-12)
    # every degree after the first record below stop_below is skipped
    recs = sweep(solver, [1, 2, 4], stop_below=0.5)
    assert recs[2].dof == -1 and np.isnan(recs[2].error("h1_semi"))
    assert recs[2].extra == {
        "error_message": "skipped: error already below stop_below"}


def test_p_rate_skips_errors_at_or_below_the_floor():
    # a rate from round-off says nothing: a pair whose error, either one, is
    # at or below ERROR_FLOOR gets no p_rate, also where the round-off rises
    # back above the floor
    errors = {1: 1e-6, 2: 1e-9, 3: ERROR_FLOOR, 4: 3e-15, 5: 2e-12,
              6: 1.5e-12}
    solver = Solver("fem_q", 2, ("h1_semi",),
                    lambda p: ((p + 1) ** 2, {"h1_semi": errors[p]}, {}))
    recs = _with_p_rate(sweep(solver, list(errors)))
    assert ["p_rate" in r.extra for r in recs] == [False, True, False, False,
                                                   False, True]
    assert recs[1].extra["p_rate"] == pytest.approx(np.log(1e3) / np.log(2),
                                                    rel=1e-12)
    assert recs[5].extra["p_rate"] == pytest.approx(
        np.log(2 / 1.5) / np.log(6 / 5), rel=1e-12)


def test_sweep_propagates_unexpected_errors():
    def solve_one(p):
        raise TypeError("a bug, not a numerical failure")

    with pytest.raises(TypeError):
        sweep(Solver("m", 2, ("l2",), solve_one), [1, 2])


def test_sweep_propagates_a_plain_value_error():
    # a ValueError from a shape or broadcast bug is not a failed degree
    def solve_one(p):
        return 1, {"l2": float(np.ones(2) @ np.ones(3))}, {}

    with pytest.raises(ValueError):
        sweep(Solver("m", 2, ("l2",), solve_one), [1, 2])


def test_h1s_sweep_records_the_inadmissible_degrees():
    # the serendipity H1 projection starts at p = 4 in 2D
    recs = run_sweep({"name": "s", "kind": "project-sweep", "proj_kind": "h1s",
                      "dim": 2, "p_min": 0, "p_max": 6})
    assert [r.p for r in recs] == list(range(7))
    for r in recs[:4]:
        assert r.dof == -1 and np.isnan(r.error("l2"))
        assert r.extra["error_class"] == "InadmissibleDegreeError"
    assert all(np.isfinite(r.error("l2")) and r.error("l2") > 0
               for r in recs[4:])


def test_run_config_empty(tmp_path):
    out = run_config({"sweeps": []}, out_dir=tmp_path)
    assert out == {}
    assert list(tmp_path.iterdir()) == []


_PROJ = {"name": "broken", "kind": "project-sweep", "proj_kind": "l2q",
         "dim": 2, "p_min": 1, "p_max": 2}
_FEM = {"name": "broken", "kind": "fem-sine", "family": "Q", "p_list": [1]}
_DG = {"name": "broken", "kind": "dg-sine", "family": "Q", "p_list": [1]}
_LSHAPE = {"name": "broken", "kind": "fem-lshape", "family": "S",
           "p_list": [1]}
_LEMMA = {"name": "broken", "kind": "lemma-audit", "dim": 2, "M_max": 2,
          "m_max": 1}


@pytest.mark.parametrize("broken", [
    pytest.param(dict(_PROJ, proj_kind="nope"), id="proj_kind"),
    pytest.param(dict(_PROJ, dim=7), id="proj_dim"),
    pytest.param(dict(_PROJ, p_min=3), id="p_min_above_p_max"),
    pytest.param(dict(_PROJ, margin=3), id="margin"),
    pytest.param(dict(_PROJ, function="cosine"), id="function"),
    pytest.param(dict(_PROJ, function="runge1d-tensor", runge_a=0.0),
                 id="runge_a"),
    pytest.param(dict(_PROJ, runge_a=0.1), id="runge_a_of_sine"),
    pytest.param(dict(_PROJ, function="expsum", runge_a=7.0),
                 id="runge_a_of_expsum"),
    pytest.param(dict(_FEM, dim=5), id="fem_dim"),
    pytest.param(dict(_FEM, n=0), id="fem_n"),
    pytest.param(dict(_FEM, family="P"), id="fem_family"),
    pytest.param(dict(_FEM, p_list=["x"]), id="p_list_str"),
    pytest.param(dict(_FEM, p_list=[True]), id="p_list_bool"),
    pytest.param(dict(_FEM, p_list=[0]), id="p_list_zero"),
    pytest.param(dict(_FEM, p_list=[]), id="p_list_empty"),
    pytest.param(dict(_FEM, p_list=[2, 2]), id="p_list_repeated"),
    pytest.param(dict(_FEM, gama=1.0), id="unknown_key"),
    pytest.param(dict(_LSHAPE, graded_ratio=1.0), id="graded_ratio"),
    pytest.param(dict(_LSHAPE, graded_layers=0), id="graded_layers"),
    pytest.param(dict(_DG, gamma=-1), id="dg_gamma"),
    pytest.param(dict(_DG, n=2.5), id="dg_n"),
    pytest.param({"name": "broken", "kind": "basis-count", "dim": 4},
                 id="basis_dim"),
    pytest.param({"name": "broken", "kind": "basis-count", "family": "S",
                  "p_max": 0}, id="basis_p_max"),
    pytest.param(dict(_LEMMA, M_max=-3), id="lemma_M_max"),
    pytest.param(dict(_LEMMA, M_max=LEMMA_AUDIT_CAP + 1), id="lemma_cap"),
    pytest.param(dict(_LEMMA, m_max=-1), id="lemma_m_max"),
    pytest.param(dict(_LEMMA, kind="lemma"), id="kind"),
    pytest.param(dict(_LEMMA, name="ok"), id="name_twice"),
    pytest.param(dict(_LEMMA, name="../../escape"), id="name_escape"),
    pytest.param(dict(_LEMMA, name=".."), id="name_dotdot"),
    pytest.param(dict(_LEMMA, name=""), id="name_empty"),
])
def test_run_config_malformed_writes_nothing(tmp_path, broken):
    bad = {"sweeps": [
        {"name": "ok", "kind": "basis-count", "dim": 2, "family": "Q",
         "p_max": 3},
        broken,
    ]}
    with pytest.raises(ConfigError):
        run_config(bad, out_dir=tmp_path / "out" / "deep")
    assert list(tmp_path.iterdir()) == []


def test_run_config_executes_and_writes(tmp_path):
    cfg = {"sweeps": [
        {"name": "counts", "kind": "basis-count", "dim": 2, "family": "P",
         "p_max": 4},
        {"name": "proj", "kind": "project-sweep", "proj_kind": "l2q",
         "dim": 2, "p_min": 2, "p_max": 5, "margin": 8},
    ]}
    out = run_config(cfg, out_dir=tmp_path)
    assert set(out) == {"counts", "proj"}
    for name in out:
        assert (tmp_path / f"{name}.csv").exists()
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert meta["tool"] == "hpexp"
    # determinism: identical config gives byte-identical CSV
    first = (tmp_path / "proj.csv").read_bytes()
    run_config(cfg, out_dir=tmp_path)
    assert (tmp_path / "proj.csv").read_bytes() == first


def test_meta_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    rec = ConvergenceRecord(method="m", p=1, dim=2, dof=4, errors={"l2": 0.5})
    write_records([rec], tmp_path / "r")
    env = json.loads((tmp_path / "r.meta.json").read_text())["environment"]
    assert env == {"python": platform.python_version(),
                   "numpy": np.__version__, "scipy": scipy.__version__,
                   "cpu_count": os.cpu_count(),
                   "threads": {"OMP_NUM_THREADS": "3"},
                   "blas_threads": blas.threads()}
    # the CSV carries no environment
    assert (tmp_path / "r.csv").read_text() == records_to_csv([rec])


def test_run_config_from_file_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        run_config(path, out_dir=tmp_path)


_SWEEP = {"name": "c", "kind": "basis-count", "dim": 2, "p_max": 2}


@pytest.mark.parametrize("config,message", [
    pytest.param({"sweeps": [], "blas_thread": 2}, "blas_thread: not a root key",
                 id="unknown_root_key"),
    # the root key is sweeps alone: Table 1 is a two-sweep config
    pytest.param({"preset": "table1", "sweeps": [_SWEEP]},
                 "preset: not a root key", id="preset_and_sweeps"),
    pytest.param({"preset": "table2"}, "preset: not a root key",
                 id="unknown_preset"),
    pytest.param({"preset": None}, "preset: not a root key", id="preset_null"),
    pytest.param({"preset": ["table1"]}, "preset", id="preset_list"),
])
def test_root_validation(config, message):
    with pytest.raises(ConfigError, match=message):
        _validated_sweeps(config)


def test_root_validation_keeps_the_valid_forms():
    assert _validated_sweeps({"sweeps": [_SWEEP]}) == [_SWEEP]


@pytest.mark.parametrize("sigma,layers,kept", [
    (None, None, {14}), (0.5, None, {20, 25}), (None, 7, {7}),
    (None, 40, {14}), (0.5, 60, {39})],
    ids=["default", "sigma0.5", "explicit", "explicit_clamped",
         "sigma0.5_clamped"])
def test_lshape_meta_is_the_quadrature_h1_error_uses(tmp_path, monkeypatch,
                                                     sigma, layers, kept):
    # h1_error's own (layers, order) at each Table-1 degree, and the points
    # of each corner element's rule, read where it builds the rules, against
    # the meta at the defaults, which a sweep runs, and against
    # error_quadrature at the other (sigma, layers); assembly and solve are
    # replaced by a zero solution
    used, corner = [], []
    element_rules_used = fem._element_rules

    def element_rules(mesh, graded_at, sigma, layers, order):
        used.append((layers, order))
        corner.append({nodes[0].shape[0] * np.prod([x.shape[1] for x in nodes])
                       for _, nodes, _ in element_rules_used(
                           mesh, graded_at, sigma, layers, order)
                       if nodes[0].ndim == 2})
        return []

    monkeypatch.setattr(fem, "_element_rules", element_rules)
    monkeypatch.setattr(fem, "assemble_poisson", lambda *args: None)
    monkeypatch.setattr(fem, "condense_solve", lambda system, dofmap:
                        fem.FemSolution(dofmap, np.zeros(dofmap.n_dof), 0.0))
    sw = dict(TABLE1["sweeps"][1])
    ratio = sigma if sigma is not None else fem.GRADED_SIGMA_DEFAULT
    if sigma is None and layers is None:
        run_config({"sweeps": [sw]}, out_dir=tmp_path)
        quad = json.loads((tmp_path / f"{sw['name']}.meta.json").read_text())[
            "quadrature"]
        assert quad == _lshape_meta(sw)["quadrature"]
        assert quad["graded_sigma"] == ratio
        rules = list(zip(quad["graded_layers"], quad["error_rule_order"]))
        points = quad["corner_points"]
        # 14 layers of 3 boxes and the innermost square, 50 x 50 points each
        assert points[-1] == 43 * 50 ** 2
    else:
        mesh = fem.mesh_lshape()
        grad = fem.fem_problem("lshape").exact_gradient
        for p in sw["p_list"]:
            dofmap = fem.build_dofmap(mesh, p, sw["family"])
            fem.h1_error(fem.FemSolution(dofmap, np.zeros(dofmap.n_dof), 0.0),
                         grad, graded_at=mesh.singular_corner, sigma=ratio,
                         layers=layers)
        rules = [fem.error_quadrature(p, layers, sigma=ratio)
                 for p in sw["p_list"]]
        points = [graded_rule(ratio, n, order, (-1, -1)).nodes.shape[1]
                  * order ** 2 for n, order in rules]
    assert used == rules
    assert corner == [{n} for n in points]
    assert len(used) == len(sw["p_list"]) == 9
    # the count graded_rule keeps, not the count asked for
    kept_layers = [n for n, _ in rules]
    assert kept_layers == [
        graded_rule(ratio, layers if layers is not None else max(p, 20),
                    order).layers
        for p, (_, order) in zip(sw["p_list"], rules)]
    assert set(kept_layers) == kept
    assert rules[0][1] == 12
    assert rules[-1][1] == 50


def test_table1_preset_validates():
    # Table 1 is a config of two sweeps, one per family
    assert _validated_sweeps(TABLE1) == TABLE1["sweeps"]
    names = [sw["name"] for sw in TABLE1["sweeps"]]
    assert names == ["table1_fem_s", "table1_fem_q"]
    assert TABLE1["sweeps"][0]["p_list"][-1] == 25


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["basis-count", "--dim", "2", "--family", "Q",
                     "--p-max", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p,dof"
    # the dim range is the config validator's: a config error, not argparse's
    assert cli_main(["basis-count", "--dim", "9", "--family", "Q",
                     "--p-max", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error: sweeps[0].dim" in err
    # numerical failure: SIP with a hopeless penalty
    code = cli_main(["dg-sine", "--n", "2", "--family", "q", "--p-max", "2",
                     "--p-min", "2", "--gamma", "1e-6"])
    capsys.readouterr()
    assert code == 0  # sweep records the failure per p and continues
    # the same validator as run_config: n = 0 is a config error
    assert cli_main(["fem-sine", "--dim", "2", "--n", "0", "--family", "q",
                     "--p-max", "2"]) == 1


def test_cli_bug_inside_a_sweep_propagates(monkeypatch):
    # the sweep is validated before it runs: a plain ValueError raised inside
    # it is a bug, reported with its traceback rather than as a usage error
    def broken(u, p):
        raise ValueError("matmul: mismatch in its core dimension")

    monkeypatch.setitem(harness._PROJECTIONS, "h1q", (broken, "Q"))
    with pytest.raises(ValueError, match="matmul"):
        cli_main(["project-sweep", "--dim", "2", "--kind", "h1q",
                  "--p-min", "1", "--p-max", "2"])


def test_cli_rejects_a_bad_degree_list(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["fem-lshape", "--family", "q", "--p-list", "1,x"])
    assert exc.value.code == 1
    assert "--p-list" in capsys.readouterr().err


def test_cli_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sweeps": [{"name": 1, "kind": "dg-sine"}]}))
    assert cli_main(["run", str(path)]) == 1


def _unreadable(tmp_path, which):
    """A path that cannot be read as text: missing, a directory, or a file
    that is not UTF-8."""
    path = tmp_path / which
    if which == "directory":
        path.mkdir()
    elif which == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    return path


@pytest.mark.parametrize("which", ["missing", "directory", "not_utf8"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, which):
    # each ended in a traceback (FileNotFoundError, IsADirectoryError,
    # UnicodeDecodeError)
    path = _unreadable(tmp_path, which)
    assert cli_main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:")
    assert str(path) in err and err.count("\n") == 1


def test_cli_out_below_a_file_is_a_usage_error(tmp_path, capsys):
    # it ended in a FileExistsError traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    assert cli_main(["basis-count", "--p-max", "2",
                     "--out", str(afile / "x")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:")
    assert str(afile) in err and err.count("\n") == 1


def test_cli_run_out_dir_below_a_file_fails_before_any_sweep(
        tmp_path, capsys, monkeypatch):
    # it ended in a NotADirectoryError traceback, after the first sweep ran
    afile = tmp_path / "afile"
    afile.write_text("")
    config = tmp_path / "ok.json"
    config.write_text(json.dumps({"sweeps": [
        {"name": "bc", "kind": "basis-count", "family": "Q", "p_max": 2}]}))
    ran = []
    monkeypatch.setattr(harness, "_records",
                        lambda *args, **kwargs: ran.append(args))
    assert cli_main(["run", str(config), "--out-dir", str(afile / "sub")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:")
    assert str(afile / "sub") in err and err.count("\n") == 1
    assert ran == []


@pytest.mark.parametrize("which", ["missing", "directory"])
def test_cli_slope_fit_unreadable_csv_is_a_usage_error(tmp_path, capsys,
                                                       which):
    # each ended in a traceback (FileNotFoundError, IsADirectoryError)
    assert cli_main(["slope-fit", str(_unreadable(tmp_path, which))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:")
    assert err.count("\n") == 1


def test_cli_slope_fit_pipeline(tmp_path, capsys):
    cfg = {"sweeps": [{"name": "proj", "kind": "project-sweep",
                       "proj_kind": "l2q", "dim": 2, "p_min": 2, "p_max": 8,
                       "margin": 10}]}
    run_config(cfg, out_dir=tmp_path)
    assert cli_main(["slope-fit", str(tmp_path / "proj.csv"),
                     "--error-key", "l2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slope=")


@pytest.mark.parametrize("row, cells", [("x,1,2,3", 4), ("x,1,2,3,0.5,9,9", 7)],
                         ids=["short", "long"])
def test_cli_slope_fit_rejects_a_row_of_the_wrong_width(tmp_path, capsys,
                                                        row, cells):
    # a short row used to print a bare KeyError, a long one lost its extra
    # cells; the blank line counts, so the row is line 4 of the file
    csv = tmp_path / "ragged.csv"
    csv.write_text(f"method,p,dim,dof,l2\nx,0,2,1,0.5\n\n{row}\n")
    assert cli_main(["slope-fit", str(csv), "--abscissa", "p"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: line 4 has {cells} cells, the header has 5" in err


@pytest.mark.parametrize("argv", [
    ["basis-count", "--dim", "3", "--p-max", "6"],
    ["fem-sine", "--dim", "2", "--n", "2", "--p-max", "2"],
    ["fem-lshape", "--p-list", "1,2"],
    ["dg-sine", "--n", "2", "--p-max", "2"],
], ids=lambda argv: argv[0])
def test_cli_family_takes_either_case(capsys, argv):
    family = {"basis-count": "s", "fem-sine": "s", "fem-lshape": "q",
              "dg-sine": "p"}[argv[0]]
    outs = []
    for spelling in (family, family.upper()):
        assert cli_main(argv + ["--family", spelling]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") > 1


def test_cli_lemma_audit_and_sharp_ratio(capsys):
    assert cli_main(["lemma-audit", "--dim", "2", "--M-max", "4",
                     "--m-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "d,M,m,lattice_max,phi,holds,argmax"
    assert any("False" in ln for ln in out.splitlines())   # the (4,2) row
    assert cli_main(["sharp-ratio", "--dim", "2", "--p", "1", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "max_ratio=2.5" in out and "holds=True" in out


def test_cli_rejects_negative_degree(capsys):
    # p = -1 used to print max_ratio=1 ... holds=True and exit 0
    assert cli_main(["sharp-ratio", "--dim", "2", "--p", "-1", "--s", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "usage error" in err


def test_cli_rejects_negative_floor_and_empty_csv(tmp_path, capsys):
    # the floor is fixed; an empty CSV is still a usage error
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli_main(["slope-fit", str(empty)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("usage error") == 1


def test_cli_fem_subcommands(tmp_path, capsys):
    assert cli_main(["fem-sine", "--dim", "2", "--n", "2", "--family", "q",
                     "--p-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("method,p,dim,dof")
    assert cli_main(["fem-lshape", "--family", "s", "--p-list", "1,2",
                     "--out", str(tmp_path / "lsh")]) == 0
    recs = records_from_csv((tmp_path / "lsh.csv").read_text())
    assert [r.p for r in recs] == [1, 2]
    assert all(np.isfinite(r.errors["h1_semi"]) for r in recs)
    # --out writes through the config runner: the meta of `hpexp run`
    meta = json.loads((tmp_path / "lsh.meta.json").read_text())
    assert meta["sweep"]["kind"] == "fem-lshape"
    assert meta["quadrature"]["graded_sigma"] == 0.15
    assert "max_solver_residual" in meta


def test_cli_fem_lshape_takes_p_max_or_p_list(capsys):
    # --p-list alone runs its degrees; neither flag, or both, is a usage error
    assert cli_main(["fem-lshape", "--family", "q", "--p-list", "1,25"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == [1, 25]
    # --p-min goes with --p-max only
    for flags in ([], ["--p-max", "2", "--p-list", "1,2"],
                  ["--p-min", "2", "--p-list", "1,2"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fem-lshape", "--family", "q"] + flags)
        assert exc.value.code == 1
    # a repeated degree is a config error, caught before any solve
    assert cli_main(["fem-lshape", "--family", "q", "--p-list", "2,2"]) == 1
    assert "strictly increasing" in capsys.readouterr().err


def test_dotted_out_prefix_is_kept_whole(tmp_path, capsys):
    # a dotted name is a distinct file, not a suffix to replace
    assert cli_main(["project-sweep", "--dim", "2", "--kind", "l2q", "--p-min",
                     "1", "--p-max", "2", "--out", str(tmp_path / "results.v2")]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == \
        ["results.v2.csv", "results.v2.meta.json"]
    out = run_config({"sweeps": [
        {"name": n, "kind": "basis-count", "p_max": 2} for n in ("r", "r.v2")]},
        out_dir=tmp_path / "cfg")
    assert set(out) == {"r", "r.v2"}
    assert sorted(f.name for f in (tmp_path / "cfg").iterdir()) == \
        ["r.csv", "r.meta.json", "r.v2.csv", "r.v2.meta.json"]


def test_cli_run_happy_path(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweeps": [
        {"name": "fl", "kind": "fem-lshape", "family": "Q", "p_list": [1, 2]}]}))
    assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fl.csv").exists()
    meta = json.loads((tmp_path / "fl.meta.json").read_text())
    assert meta["quadrature"]["graded_sigma"] == 0.15
    assert "max_solver_residual" in meta


@pytest.mark.parametrize("argv,sweep", [
    (["project-sweep", "--dim", "2", "--kind", "l2q", "--p-min", "1",
      "--p-max", "2"],
     {"kind": "project-sweep", "proj_kind": "l2q", "dim": 2, "p_min": 1,
      "p_max": 2}),
    (["dg-sine", "--n", "2", "--family", "q", "--p-max", "2"],
     {"kind": "dg-sine", "n": 2, "family": "Q", "p_list": [1, 2]}),
    (["fem-lshape", "--family", "q", "--p-max", "2"],
     {"kind": "fem-lshape", "family": "Q", "p_list": [1, 2]}),
    (["basis-count", "--family", "q", "--p-max", "3"],
     {"kind": "basis-count", "family": "Q", "p_max": 3}),
    (["lemma-audit", "--dim", "2", "--M-max", "4", "--m-max", "2"],
     {"kind": "lemma-audit", "dim": 2, "M_max": 4, "m_max": 2}),
    # no --dim or --n: the kind's default 8^2 mesh
    (["fem-sine", "--family", "q", "--p-max", "2"],
     {"kind": "fem-sine", "family": "Q", "p_list": [1, 2]}),
], ids=["project-sweep", "dg-sine", "fem-lshape", "basis-count", "lemma-audit",
        "fem-sine"])
def test_cli_out_meta_lists_only_the_given_keys(argv, sweep, tmp_path):
    # an option left out takes the kind's default, as a config key left out does
    assert cli_main(argv + ["--out", str(tmp_path / "cli" / "s")]) == 0
    run_config({"sweeps": [{"name": "s", **sweep}]}, tmp_path / "cfg")
    metas = [json.loads((tmp_path / d / "s.meta.json").read_text())
             for d in ("cli", "cfg")]
    assert metas[0]["sweep"] == metas[1]["sweep"] == {"name": "s", **sweep}
    assert ((tmp_path / "cli" / "s.csv").read_text()
            == (tmp_path / "cfg" / "s.csv").read_text())


def _subcommand(command: str) -> argparse.ArgumentParser:
    actions = cli._build_parser()._actions
    return next(a for a in actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", harness.KINDS)
def test_cli_sweep_options_are_the_kind_keys(command):
    # one option per key, named by the key, required exactly when the key is;
    # a p_list is --p-list or --p-max (a group required as the key is), with
    # --p-min; and --out
    fields = harness.KINDS[command].fields
    parser = _subcommand(command)
    options = {a.dest: a.required for a in parser._actions if a.dest != "help"}
    keys = {k: key.required for k, key in fields.items() if k != "p_list"}
    groups = [({a.dest for a in g._group_actions}, g.required)
              for g in parser._mutually_exclusive_groups]
    if "p_list" in fields:
        keys.update(p_list=False, p_max=False, p_min=False)
        assert groups == [({"p_list", "p_max"}, fields["p_list"].required)]
    else:
        assert groups == []
    assert options == {**keys, "out": False}


# two project-sweeps' references are one exactly when their effective
# (function, dim, p_max, margin) are equal, defaults filled in
_REF = {"kind": "project-sweep", "proj_kind": "l2q", "dim": 2, "p_min": 2,
        "p_max": 5, "margin": 6}


@pytest.mark.parametrize("a,b,shared", [
    (_REF, dict(_REF, margin=7), False),
    (_REF, dict(_REF, p_max=6), False),
    (_REF, dict(_REF, function="expsum"), False),
    (_REF, dict(_REF, dim=3), False),
    (_REF, dict(_REF, proj_kind="h1q", p_min=1), True),
    (_REF, dict(_REF, function="sine"), True),
    (dict(_REF, margin=20), {k: v for k, v in _REF.items() if k != "margin"},
     True),
], ids=["margin", "p_max", "function", "dim", "proj_kind",
        "default_function", "default_margin"])
def test_run_config_shares_a_reference_only_between_equal_keys(
        monkeypatch, tmp_path, a, b, shared):
    built = []
    real = expansion.reference_expansion

    def counting(f, p, margin):
        built.append((p, margin))
        return real(f, p, margin=margin)

    monkeypatch.setattr(expansion, "reference_expansion", counting)
    run_config({"sweeps": [dict(a, name="a"), dict(b, name="b")]}, tmp_path)
    assert len(built) == (1 if shared else 2)
    # each meta names the reference's degree and the sweep that built it
    metas = {n: json.loads((tmp_path / f"{n}.meta.json").read_text())
             for n in ("a", "b")}
    for name, sw in (("a", a), ("b", b)):
        assert metas[name]["reference"] == {
            "degree": sw["p_max"] + sw.get("margin", 20),
            "built_by": "a" if shared else name}


def test_run_config_drops_each_reference_after_its_last_use(monkeypatch,
                                                             tmp_path):
    # references A, B, C told apart by p_max, read in the order A A B A C: A
    # stays alive while B is built, and both are dead when C is
    refs, alive = {}, []
    real = expansion.reference_expansion

    def tracked(f, p, margin):
        alive.append({q: r() is not None for q, r in refs.items()})
        u = real(f, p, margin=margin)
        refs[p] = weakref.ref(u)
        return u

    monkeypatch.setattr(expansion, "reference_expansion", tracked)
    order = [(3, "l2q"), (3, "h1q"), (4, "l2q"), (3, "l2p"), (5, "l2q")]
    run_config({"sweeps": [dict(_REF, name=f"s{i}", p_max=p, proj_kind=kind)
                           for i, (p, kind) in enumerate(order)]}, tmp_path)
    assert alive == [{}, {3: True}, {3: False, 4: False}]
    assert all(r() is None for r in refs.values())


def test_project_sweep_meta_records_its_reference(tmp_path):
    run_config({"sweeps": [
        dict(_REF, name="a"), dict(_REF, name="b", proj_kind="l2p"),
        {"name": "c", "kind": "project-sweep", "proj_kind": "h1q", "dim": 2,
         "p_min": 1, "p_max": 3},
        {"name": "counts", "kind": "basis-count", "p_max": 2}]}, tmp_path)
    metas = {n: json.loads((tmp_path / f"{n}.meta.json").read_text())
             for n in ("a", "b", "c", "counts")}
    assert metas["a"]["reference"] == {"degree": 11, "built_by": "a"}
    assert metas["b"]["reference"] == {"degree": 11, "built_by": "a"}
    assert metas["c"]["reference"] == {"degree": 23, "built_by": "c"}
    assert "reference" not in metas["counts"]



@pytest.mark.parametrize("config,key", [
    ({"preset": "table1"}, "preset"),
    ({"sweeps": [dict(_PROJ, function="runge1d-tensor", runge_a=0.5)]},
     "runge_a"),
    ({"sweeps": [dict(_LSHAPE, graded_ratio=0.15)]}, "graded_ratio"),
    ({"sweeps": [dict(_LSHAPE, graded_layers=14)]}, "graded_layers"),
], ids=["preset", "runge_a", "graded_ratio", "graded_layers"])
def test_cli_run_rejects_a_removed_key(tmp_path, capsys, config, key):
    # no workload, criterion or demo set these; a config that does is an
    # error naming the key, before anything runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{key}: not a" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_slope_fit_options_are_the_abscissa_and_the_error_key():
    options = {s for a in _subcommand("slope-fit")._actions
               for s in a.option_strings}
    assert options == {"-h", "--help", "--abscissa", "--error-key"}


class _Reads(dict):
    """A sweep that records the keys read from it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# a value the validator accepts for each declared key, of every kind
_KEY_VALUES = {"proj_kind": "l2q", "dim": 2, "p_min": 1, "p_max": 2,
               "function": "expsum", "margin": 4, "family": "Q",
               "p_list": [1], "n": 1, "gamma": 10.0, "M_max": 0, "m_max": 0}


@pytest.mark.parametrize("kind", harness.KINDS)
def test_every_declared_key_is_read(kind):
    # a key the validator accepts and the run then ignores would be a
    # setting that changes nothing
    spec = harness.KINDS[kind]
    sw = {"name": kind, "kind": kind,
          **{k: v for k, v in _KEY_VALUES.items() if k in spec.fields}}
    _validated_sweeps({"sweeps": [sw]})
    sw = _Reads(sw)
    if spec.solver is None:
        _lemma_records(sw)
    else:
        spec.solver(sw, {})
    spec.meta(sw)
    assert spec.fields.keys() <= sw.read
