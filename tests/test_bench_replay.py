"""The benchmark's traced replay against ``run_config``, on a small config.

``bench/tracing.py`` calls the layers' public stage functions itself (the
mesh, dofmap, assembly, solve and error of each sweep kind), so it pins
their signatures and the fields it reads.  This test runs one sweep of each
kind through ``run_config`` and through the replay and asserts the records
and their fitted slope ratio equal, as ``bench/run.py --trace 1`` does on
the full workloads: a change that breaks a call the replay or the ratio
check makes, or moves a record, fails here.  The bench files are imported
from ``bench/`` as they are.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from check import fitted_ratios, plain_record  # noqa: E402
from tracing import Replay, Tracer  # noqa: E402

from hpexp.harness import run_config  # noqa: E402

# one sweep of each kind the replay knows; every projection degree is
# admissible for its kind
CONFIG = {"sweeps": [
    {"name": "fem2", "kind": "fem-sine", "family": "Q", "dim": 2, "n": 2,
     "p_list": [1, 2, 3]},
    {"name": "fem3", "kind": "fem-sine", "family": "S", "dim": 3, "n": 2,
     "p_list": [1, 2]},
    {"name": "lshape", "kind": "fem-lshape", "family": "Q", "p_list": [1, 2]},
    {"name": "dg", "kind": "dg-sine", "family": "P", "n": 2,
     "p_list": [1, 2]},
    {"name": "h1s", "kind": "project-sweep", "proj_kind": "h1s",
     "function": "runge1d-tensor", "dim": 2, "p_min": 4, "p_max": 6,
     "margin": 30},
    {"name": "l2q", "kind": "project-sweep", "proj_kind": "l2q", "dim": 3,
     "p_min": 1, "p_max": 3},
    {"name": "lemma", "kind": "lemma-audit", "dim": 2, "M_max": 3,
     "m_max": 2},
]}


def test_replay_records_equal_run_config(tmp_path):
    records = {name: [plain_record(r) for r in recs]
               for name, recs in run_config(CONFIG, str(tmp_path)).items()}
    traced = Replay(Tracer()).run(CONFIG)
    assert set(traced) == {sw["name"] for sw in CONFIG["sweeps"]}
    assert all(traced[name] for name in traced)
    assert not any("error_message" in r or "skipped" in r
                   for recs in traced.values() for r in recs)
    assert json.dumps(traced, sort_keys=True) == \
        json.dumps(records, sort_keys=True)
    # the ratio check's path: ConvergenceRecord, fit_slope, ratio_report
    ratio = {"fem2": ("fem2", "fem2", "h1_semi")}
    assert fitted_ratios(traced, ratio) == fitted_ratios(records, ratio) \
        == {"fem2": 1.0}
