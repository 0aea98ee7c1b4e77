"""Golden regression net: the solvers' own measured errors, pinned.

The published-number acceptance criteria are partly red by measurement, so
they cannot tell a refactor regression from a known miss.  This net can: it
reruns small sweeps of every solver kind and compares each record with
``tests/golden.json``.  Errors above ``FLOOR`` must agree to ``RTOL``
relative plus the record's absolute resolution term ``res`` (zero where none
is stored); a pinned error below ``FLOOR`` is solver round-off and is checked
only to stay below it.  Dof counts must match exactly.

A FEM error's ``res`` is measured, never chosen: the largest |e - e_pin| when
the sweep is rerun with its skeleton factorized by each of the three
backward-stable factorizations of ``skeleton_reference.FACTORIZATIONS``
(symmetric-mode SuperLU, the multifrontal, dense Cholesky).  It is the
round-off of the factorization, which the pin must not resolve.  The order
of the dofs (``fem.build_dofmap`` numbers the entities in lattice order)
moves the same round-off, as it orders the fronts' rows.

Measure the resolution terms against the stored pins with

    PYTHONPATH=src python tests/test_golden.py

which also prints each factorization's spread per FEM record; add
``--repin`` to measure the pins first (only on purpose, from a trusted
commit).
"""

import copy
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from hpexp import fem
from hpexp.harness import run_sweep
from graded_reference import TABLE1
from skeleton_reference import FACTORIZATIONS

GOLDEN = Path(__file__).with_name("golden.json")
FLOOR = 1e-12
RTOL = 1e-10

SWEEPS = [dict(sw) for sw in TABLE1["sweeps"]]
SWEEPS += [{"name": f"sine2d_{fam.lower()}", "kind": "fem-sine", "family": fam,
            "dim": 2, "n": 4, "p_list": [1, 2, 3, 4, 5, 6, 8]}
           for fam in ("Q", "S")]
SWEEPS += [{"name": f"sine3d_{fam.lower()}", "kind": "fem-sine", "family": fam,
            "dim": 3, "n": 2, "p_list": [1, 2, 3, 4, 5, 6]}
           for fam in ("Q", "S")]
SWEEPS += [{"name": f"dg_{fam.lower()}", "kind": "dg-sine", "family": fam,
            "n": 4, "p_list": [1, 2, 3, 4, 5]}
           for fam in ("Q", "P")]
# smallest admissible degree of each projection kind, per dimension
_P_MIN = {"l2q": (1, 1), "l2p": (1, 1), "h1q": (1, 1), "h1s": (4, 6),
          "h1p": (5, 8)}
SWEEPS += [{"name": f"proj{d}d_{kind}_{function}", "kind": "project-sweep",
            "proj_kind": kind, "dim": d, "function": function,
            "p_min": _P_MIN[kind][d - 2], "p_max": 14 if d == 2 else 10}
           for d in (2, 3) for kind in _P_MIN for function in ("sine", "expsum")]


def _measure(sw: dict) -> list[dict]:
    return [{"p": r.p, "dof": r.dof, "errors": r.errors}
            for r in run_sweep(sw)]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _mismatches(name: str, got: list[dict], pinned: list[dict]) -> list[str]:
    """Every measured error that the golden rule rejects, as messages."""
    assert [(r["p"], r["dof"]) for r in got] == \
        [(r["p"], r["dof"]) for r in pinned]
    bad = []
    for new, old in zip(got, pinned):
        assert new["errors"].keys() == old["errors"].keys()
        for key, ref in old["errors"].items():
            val = new["errors"][key]
            res = old.get("res", {}).get(key, 0.0)
            where = f"{name} p={new['p']} {key}"
            if not math.isfinite(val):
                bad.append(f"{where}: {val}")
            elif ref < FLOOR:
                if not val < FLOOR:
                    bad.append(f"{where}: {val:.3e} not below {FLOOR:g}")
            elif not abs(val - ref) <= RTOL * ref + res:
                bad.append(f"{where}: {val!r} against pinned {ref!r} "
                           f"(res {res:.3e})")
    return bad


@pytest.mark.parametrize("sw", SWEEPS, ids=[sw["name"] for sw in SWEEPS])
def test_golden_sweep(sw):
    pinned = _golden()[sw["name"]]
    assert pinned["sweep"] == sw, "sweep definition differs from the pinned one"
    assert not _mismatches(sw["name"], _measure(sw), pinned["records"])


def test_golden_covers_every_sweep():
    assert set(_golden()) == {sw["name"] for sw in SWEEPS}


def test_resolution_terms_are_stored_for_every_fem_error():
    for name, entry in _golden().items():
        fem_sweep = entry["sweep"]["kind"] in ("fem-lshape", "fem-sine")
        for rec in entry["records"]:
            assert ("res" in rec) == fem_sweep, (name, rec["p"])
            if fem_sweep:
                assert rec["res"].keys() == rec["errors"].keys()
                assert all(0.0 <= r < 1e-12 for r in rec["res"].values())


def test_net_catches_a_real_move():
    """A 1e-8 relative move of the sine2d Q p = 6 error (2.17e-7) is far
    outside the factorizations' spread there, and must fail."""
    pinned = _golden()["sine2d_q"]["records"]
    assert not _mismatches("sine2d_q", pinned, pinned)
    moved = copy.deepcopy(pinned)
    rec = next(r for r in moved if r["p"] == 6)
    rec["errors"]["h1_semi"] *= 1.0 + 1e-8
    bad = _mismatches("sine2d_q", moved, pinned)
    assert len(bad) == 1 and bad[0].startswith("sine2d_q p=6 h1_semi")


@contextmanager
def _factorized_by(factor):
    """Route every FEM skeleton factorization through ``factor``, called as
    ``fem._factor_multifrontal`` is."""
    saved = fem._factor_multifrontal
    fem._factor_multifrontal = factor
    try:
        yield
    finally:
        fem._factor_multifrontal = saved


def _resolution(sw: dict, records: list[dict]) -> list[dict]:
    """Per record and error key, the largest |e - e_pin| over the skeleton
    factorizations; prints each factorization's relative spread."""
    res = [{key: 0.0 for key in r["errors"]} for r in records]
    for label, factor in FACTORIZATIONS.items():
        with _factorized_by(factor):
            got = _measure(sw)
        for r, new, old in zip(res, got, records):
            for key, ref in old["errors"].items():
                move = abs(new["errors"][key] - ref)
                r[key] = max(r[key], move)
                print(f"{sw['name']} p={old['p']} {key} {label}: "
                      f"{move / ref:.2e} relative, {move:.2e} absolute")
    return res


if __name__ == "__main__":
    # keeps the pins and measures every FEM record's res against them;
    # with --repin, measures the pins first
    repin = sys.argv[1:] == ["--repin"]
    golden = {} if repin else _golden()
    for sw in SWEEPS:
        if repin:
            golden[sw["name"]] = {"sweep": sw, "records": _measure(sw)}
        records = golden[sw["name"]]["records"]
        if sw["kind"] in ("fem-lshape", "fem-sine"):
            for rec, res in zip(records, _resolution(sw, records)):
                rec["res"] = res
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
