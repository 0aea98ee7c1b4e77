"""The OpenBLAS thread policy: one thread from import, recorded in the meta."""

import json
import os

import pytest

import hpexp  # noqa: F401  (applies the policy)
from hpexp import blas
from hpexp.harness import ConvergenceRecord, run_sweep, write_records

FLOOR = 1e-12
RTOL = 1e-10
needs_two = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                               reason="needs 2 CPUs for 2 BLAS threads")


def test_import_sets_one_thread():
    found = blas.threads()
    assert found is None or set(found.values()) == {1}


def test_finds_numpy_and_scipy_openblas():
    found = blas.threads()
    if found is None:
        pytest.skip("no known OpenBLAS loaded")
    assert all("openblas" in name for name in found)


def test_unknown_blas_is_a_no_op(monkeypatch, tmp_path):
    monkeypatch.setattr(blas, "_libraries", lambda: ())
    assert blas.threads() is None
    blas.set_threads(1)
    rec = ConvergenceRecord(method="m", p=1, dim=2, dof=4, errors={"l2": 0.5})
    write_records([rec], tmp_path / "r")
    env = json.loads((tmp_path / "r.meta.json").read_text())["environment"]
    assert env["blas_threads"] is None


@needs_two
def test_meta_records_the_count_in_use(tmp_path):
    rec = ConvergenceRecord(method="m", p=1, dim=2, dof=4, errors={"l2": 0.5})
    try:
        blas.set_threads(2)
        write_records([rec], tmp_path / "r")
    finally:
        blas.set_threads(1)
    env = json.loads((tmp_path / "r.meta.json").read_text())["environment"]
    assert env["blas_threads"] is None or set(env["blas_threads"].values()) == {2}
    found = blas.threads()
    assert found is None or set(found.values()) == {1}


@needs_two
@pytest.mark.parametrize("family", ["Q", "S"])
def test_fem3d_errors_agree_between_one_and_two_threads(family):
    sw = {"name": "s", "kind": "fem-sine", "family": family, "dim": 3, "n": 3,
          "p_list": [2, 3, 4, 5]}
    one = run_sweep(sw)
    try:
        blas.set_threads(2)
        two = run_sweep(sw)
    finally:
        blas.set_threads(1)
    assert [r.dof for r in one] == [r.dof for r in two]
    for a, b in zip(one, two):
        ea, eb = a.error("h1_semi"), b.error("h1_semi")
        if ea < FLOOR:
            assert eb < FLOOR
        else:
            assert abs(ea - eb) <= RTOL * ea, (a.p, ea, eb)
