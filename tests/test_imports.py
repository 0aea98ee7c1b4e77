"""What a run imports: the coefficient layers and the FEM solver load no
scipy, a FEM sweep no DG solver, no ``numpy.ma``, no coefficient layer and
no ``importlib.metadata``, a DG sweep no FEM solver, and every OpenBLAS a
solver module loads runs one thread: numpy's alone for ``fem``, scipy's too
for ``dgfem``.

Each check runs in a fresh interpreter, since the test process already holds
every module the other tests imported.
"""

import json
import os
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import pytest

import hpexp
from hpexp import (bounds, dgfem, errors, expansion, fem, functions, harness,
                   indexsets, mesh, projections)

SRC = Path(hpexp.__file__).resolve().parent.parent

# the last line a check prints: the scipy and hpexp modules it has loaded
PRINT_MODULES = ("import json, sys; print(json.dumps(sorted("
                 "m for m in sys.modules if m.split('.')[0] in "
                 "('scipy', 'hpexp'))))")


def _run(code: str, *args: str, **env: str):
    """The JSON last line that ``code`` prints in a fresh interpreter which
    imports hpexp from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


# the modules a FEM run has no use for: the coefficient layers, and the
# package metadata reader (about 60 ms of a fresh run's setup)
NOT_IN_A_FEM_RUN = ("importlib.metadata", "hpexp.projections", "hpexp.bounds",
                    "hpexp.expansion")

# the last line a run prints: which of these modules it has loaded
PRINT_LOADED = ("print(json.dumps(sorted(m for m in sys.modules if m in "
                "json.loads(sys.argv[-1]))))")


def test_harness_import_loads_no_scipy():
    assert _scipy(_run("import hpexp.harness\n" + PRINT_MODULES)) == []


def test_projection_and_lemma_run_loads_no_scipy(tmp_path):
    config = {"sweeps": [
        {"name": "proj", "kind": "project-sweep", "proj_kind": "h1s",
         "dim": 2, "p_min": 4, "p_max": 6, "margin": 10},
        {"name": "lemma", "kind": "lemma-audit", "dim": 2, "M_max": 3,
         "m_max": 2}]}
    code = ("import json, sys\n"
            "from hpexp.harness import run_config\n"
            "run_config(json.loads(sys.argv[1]), sys.argv[2])\n" + PRINT_MODULES)
    modules = _run(code, json.dumps(config), str(tmp_path))
    assert _scipy(modules) == []
    assert "hpexp.fem" not in modules and "hpexp.dgfem" not in modules
    # the meta still names the scipy a solver run would use
    meta = json.loads((tmp_path / "proj.meta.json").read_text())
    assert meta["environment"]["scipy"] == harness._scipy_version()


def test_fem_run_loads_no_dg_solver(tmp_path):
    # fem binds numpy's LAPACK, so a 2D and a 3D sine run and an L-shape run
    # load no scipy at all, and their metas name numpy's OpenBLAS alone
    config = {"sweeps": [
        {"name": "sine2d", "kind": "fem-sine", "family": "Q", "dim": 2,
         "n": 2, "p_list": [2, 3]},
        {"name": "sine3d", "kind": "fem-sine", "family": "S", "dim": 3,
         "n": 2, "p_list": [2, 3]},
        {"name": "lshape", "kind": "fem-lshape", "family": "Q",
         "p_list": [2, 3]}]}
    code = ("import json, sys\n"
            "from hpexp.harness import run_config\n"
            "run_config(json.loads(sys.argv[1]), sys.argv[2])\n" + PRINT_MODULES)
    modules = _run(code, json.dumps(config), str(tmp_path))
    assert "hpexp.fem" in modules
    assert "hpexp.dgfem" not in modules and _scipy(modules) == []
    for name in ("sine2d", "sine3d", "lshape"):
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        found = meta["environment"]["blas_threads"]
        assert list(found.values()) == [1], (name, found)


@pytest.mark.parametrize("argv", [
    ["fem-sine", "--dim", "2", "--n", "3", "--family", "s", "--p-max", "3"],
    ["fem-sine", "--dim", "3", "--n", "2", "--family", "q", "--p-max", "2"],
    ["fem-lshape", "--family", "q", "--p-list", "1,4"]],
    ids=["sine2d", "sine3d", "lshape"])
def test_fem_run_loads_no_numpy_ma(argv):
    # np.unique(..., axis=0) imports numpy.ma, 9-21 ms of a FEM run's
    # setup; the mesh, the boundary data and the error rules group their
    # rows by 1-D keys instead
    code = ("import contextlib, io, json, sys\n"
            "from hpexp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([m for m in sys.modules\n"
            "                  if m.split('.')[:2] == ['numpy', 'ma']]))")
    assert _run(code, json.dumps(argv)) == []


def test_fem_run_loads_no_coefficient_layer(tmp_path):
    # a fem-sine 2D, a fem-sine 3D and a fem-lshape run, whose metas still
    # name the installed scipy's version
    config = {"sweeps": [
        {"name": "sine2d", "kind": "fem-sine", "family": "Q", "dim": 2,
         "n": 2, "p_list": [2, 3]},
        {"name": "sine3d", "kind": "fem-sine", "family": "S", "dim": 3,
         "n": 2, "p_list": [2, 3]},
        {"name": "lshape", "kind": "fem-lshape", "family": "Q",
         "p_list": [2, 3]}]}
    code = ("import json, sys\n"
            "from hpexp.harness import run_config\n"
            "run_config(json.loads(sys.argv[1]), sys.argv[2])\n" + PRINT_LOADED)
    assert _run(code, json.dumps(config), str(tmp_path),
                json.dumps(NOT_IN_A_FEM_RUN)) == []
    for name in ("sine2d", "sine3d", "lshape"):
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert meta["environment"]["scipy"] == version("scipy"), name


def test_projections_import_builds_no_lemma_table():
    # ``projections`` imports ``bounds`` for ``phi``; the lemma audit's
    # log-Gamma table and composition lattices are built by the first
    # audit, not at import (4.5 ms of the import once).  Both builders are
    # counted from before ``bounds`` binds them
    code = ("import json\n"
            "from hpexp import expansion, orthopoly\n"
            "calls = []\n"
            "def counted(name, fn):\n"
            "    def wrapper(*args):\n"
            "        calls.append(name)\n"
            "        return fn(*args)\n"
            "    return wrapper\n"
            "orthopoly.log_gamma = counted('log_gamma', orthopoly.log_gamma)\n"
            "expansion.composition_array = counted(\n"
            "    'composition_array', expansion.composition_array)\n"
            "import hpexp.projections\n"
            "print(json.dumps(sorted(set(calls))))")
    assert _run(code) == []


def test_scipy_version_without_a_dist_info_file(monkeypatch):
    # where no scipy-*.dist-info is found beside the package, the version
    # comes from importlib.metadata, as it always did
    monkeypatch.setattr(harness.importlib.util, "find_spec", lambda name: None)
    harness._scipy_version.cache_clear()
    try:
        assert harness._scipy_version() == version("scipy")
    finally:
        harness._scipy_version.cache_clear()


def test_dg_run_loads_no_fem_solver(tmp_path):
    # DG runs on the mesh of ``hpexp.mesh``, not on ``fem``'s import
    config = {"sweeps": [{"name": "dg", "kind": "dg-sine", "family": "P",
                          "n": 2, "p_list": [2, 3]}]}
    code = ("import json, sys\n"
            "from hpexp.harness import run_config\n"
            "run_config(json.loads(sys.argv[1]), sys.argv[2])\n" + PRINT_LOADED)
    loaded = _run(code, json.dumps(config), str(tmp_path),
                  json.dumps(["hpexp.fem", "hpexp.lapack", "hpexp.mesh"]))
    assert loaded == ["hpexp.mesh"]
    meta = json.loads((tmp_path / "dg.meta.json").read_text())
    assert meta["environment"]["scipy"] == version("scipy")


def test_cli_fem_sweep_loads_no_coefficient_layer():
    # the CLI imports ``bounds`` for sharp-ratio alone
    code = ("import contextlib, io, json, sys\n"
            "from hpexp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(json.loads(sys.argv[1]))\n" + PRINT_LOADED)
    argv = ["fem-sine", "--dim", "2", "--n", "2", "--family", "q",
            "--p-max", "2"]
    assert _run(code, json.dumps(argv), json.dumps(NOT_IN_A_FEM_RUN)) == []


def test_moved_names_are_reexported_from_their_old_modules():
    for name in ("Mesh", "mesh_uniform", "mesh_lshape", "_at", "_coords",
                 "_lattice", "_unique_rows", "_HALF"):
        assert getattr(fem, name) is getattr(mesh, name), name
    assert expansion.FunctionOracle is functions.FunctionOracle
    assert expansion.named_function is functions.named_function
    assert (projections.InadmissibleDegreeError
            is errors.InadmissibleDegreeError)
    assert bounds.LEMMA_AUDIT_CAP == indexsets.LEMMA_AUDIT_CAP == 40
    assert harness.PROJECTION_KINDS == ("l2q", "l2p", "h1q", "h1s", "h1p")


@pytest.mark.parametrize("module", ["hpexp.fem", "hpexp.dgfem"])
def test_solver_import_sets_every_openblas_to_one_thread(module):
    # ``import hpexp`` sets numpy's copy; scipy's loads with ``dgfem`` and is
    # set then; ``fem`` loads no other.  The environment asks for two threads
    found = _run(f"import {module}\n"
                 "import json; from hpexp import blas\n"
                 "print(json.dumps(blas.threads()))",
                 OPENBLAS_NUM_THREADS="2")
    if found is None:
        pytest.skip("no known OpenBLAS loaded")
    copies = {"hpexp.fem": 1, "hpexp.dgfem": 2}[module]
    assert len(found) == copies and set(found.values()) == {1}, found


def test_solvers_reexport_the_sweep_errors():
    assert fem.IndefiniteSystemError is errors.IndefiniteSystemError
    assert fem.RefinementError is errors.RefinementError
    assert dgfem.IndefiniteSipError is errors.IndefiniteSipError
    for exc in (fem.IndefiniteSystemError, fem.RefinementError,
                dgfem.IndefiniteSipError, projections.InadmissibleDegreeError):
        assert exc in harness.SWEEP_ERRORS
