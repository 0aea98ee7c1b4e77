"""Golden regression net: the solvers' own measured errors, pinned.

The published-number acceptance criteria are partly red by measurement, so
they cannot tell a refactor regression from a known miss.  This net can: it
reruns small sweeps of every solver kind and compares each record with
``tests/golden.json``.  Errors above ``FLOOR`` must agree to ``RTOL``
relative; a pinned error below ``FLOOR`` is solver round-off and is checked
only to stay below it.  Dof counts must match exactly.

Regenerate the file (only on purpose, from a trusted commit) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from hpexp.harness import TABLE1_PRESET, run_sweep

GOLDEN = Path(__file__).with_name("golden.json")
FLOOR = 1e-12
RTOL = 1e-10

SWEEPS = [dict(sw) for sw in TABLE1_PRESET["sweeps"]]
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


@pytest.mark.parametrize("sw", SWEEPS, ids=[sw["name"] for sw in SWEEPS])
def test_golden_sweep(sw):
    pinned = _golden()[sw["name"]]
    assert pinned["sweep"] == sw, "sweep definition differs from the pinned one"
    got = _measure(sw)
    assert [(r["p"], r["dof"]) for r in got] == \
        [(r["p"], r["dof"]) for r in pinned["records"]]
    for new, old in zip(got, pinned["records"]):
        assert new["errors"].keys() == old["errors"].keys()
        for key, ref in old["errors"].items():
            val = new["errors"][key]
            where = f"{sw['name']} p={new['p']} {key}"
            assert math.isfinite(val), f"{where}: {val}"
            if ref < FLOOR:
                assert val < FLOOR, f"{where}: {val:.3e} not below {FLOOR:g}"
            else:
                assert abs(val - ref) <= RTOL * ref, \
                    f"{where}: {val!r} against pinned {ref!r}"


def test_golden_covers_every_sweep():
    assert set(_golden()) == {sw["name"] for sw in SWEEPS}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {sw["name"]: {"sweep": sw, "records": _measure(sw)} for sw in SWEEPS},
        indent=1) + "\n")
