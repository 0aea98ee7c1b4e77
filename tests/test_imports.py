"""What a run imports: the coefficient layers and the FEM solver load no
scipy, a FEM sweep no DG solver and no ``numpy.ma``, and every OpenBLAS a
solver module loads runs one thread: numpy's alone for ``fem``, scipy's too
for ``dgfem``.

Each check runs in a fresh interpreter, since the test process already holds
every module the other tests imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hpexp
from hpexp import dgfem, errors, fem, harness

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
                dgfem.IndefiniteSipError):
        assert exc in harness.SWEEP_ERRORS
