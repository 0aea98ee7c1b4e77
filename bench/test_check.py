"""Tests for the benchmark's output check and traced replay.

    python3 -m pytest -q bench/test_check.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from check import (ABS_SLACK, REL_TOL, check_outputs, check_ratio,  # noqa: E402
                   check_sweep, fitted_ratios, plain_record, roundoff_zone)
from workloads import RATIOS, WORKLOADS, warmup_config  # noqa: E402


def _load(path):
    return json.loads(Path(path).read_text())


GOLDEN = {w: _load(BENCH / "golden" / f"{w}.json") for w in WORKLOADS}
SWAP = _load(BENCH / "testdata" / "dg_splu_swap.json")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_stored_outputs_pass_and_reproduce_their_ratios(workload):
    golden = GOLDEN[workload]
    ratios = fitted_ratios(golden["records"], RATIOS[workload])
    assert ratios == golden["ratios"]
    assert all(ok for _, ok, _ in check_outputs(golden["records"], ratios,
                                                golden))


def test_solver_swap_errors_pass():
    """A symmetric-mode splu in place of spsolve moves DG errors by round-off:
    1.4e-15 at Q p = 6, 7 and 2-49% on the plateau.  No error entry fails."""
    stored = GOLDEN["dg"]["records"]
    q6 = SWAP["records"]["dg_q"][4]["errors"]["dg_norm"]
    assert q6 != stored["dg_q"][4]["errors"]["dg_norm"]
    for sweep, recs in SWAP["records"].items():
        assert all(ok for _, ok, _ in check_sweep(sweep, recs, stored[sweep]))


def test_solver_swap_ratio_fails():
    """The same swap moves the fitted DG P:Q ratio out of the criterion-4
    window 1.30-1.45; the ratio check catches it."""
    stored = GOLDEN["dg"]["ratios"]["dg_p_q"]
    swapped = fitted_ratios(SWAP["records"], RATIOS["dg"])["dg_p_q"]
    assert 1.30 <= stored <= 1.45
    assert swapped == pytest.approx(0.8135, abs=1e-4)
    assert not check_ratio("dg_p_q", swapped, stored)[1]
    results = check_outputs(SWAP["records"], {"dg_p_q": swapped}, GOLDEN["dg"])
    assert [oid for oid, ok, _ in results if not ok] == ["ratio:dg_p_q"]


def _entries():
    for workload, golden in sorted(GOLDEN.items()):
        for sweep, recs in golden["records"].items():
            for i, rec in enumerate(recs):
                for key, value in rec["errors"].items():
                    yield workload, sweep, i, key, value


# Above this value (about 1e-6) a 1e-8 relative change exceeds the
# tolerance REL_TOL * g + ABS_SLACK.  Below it, a 1e-8 change is smaller than
# the round-off the solver swap above produces, so no check can tell them apart.
PERTURBATION_VISIBLE = ABS_SLACK / (1e-8 - REL_TOL)


@pytest.mark.parametrize("factor", [1 + 1e-8, 1 - 1e-8])
def test_relative_perturbation_fails(factor):
    """A 1e-8 relative change of any stored error above about 1e-6 fails the
    check, and so does the same change of any lemma-audit value."""
    checked = 0
    for workload, sweep, i, key, value in _entries():
        lemma = sweep.startswith("lemma_audit")
        if not lemma and value <= PERTURBATION_VISIBLE:
            continue
        stored = GOLDEN[workload]["records"][sweep]
        recs = list(stored)
        recs[i] = dict(stored[i], errors={**stored[i]["errors"],
                                          key: value * factor})
        bad = [oid for oid, ok, _ in check_sweep(sweep, recs, stored) if not ok]
        assert len(bad) == 1, (sweep, i, key, value)
        checked += 1
    assert checked


def test_ratio_change_fails():
    for workload, golden in GOLDEN.items():
        for name, value in golden["ratios"].items():
            assert check_ratio(name, value * (1 + 1e-6), value)[1]
            assert not check_ratio(name, value * 1.01, value)[1]
            assert not check_ratio(name, None, value)[1]


def test_roundoff_zone_is_only_checked_as_below_bound():
    stored = GOLDEN["dg"]["records"]["dg_q"]
    zone = roundoff_zone([r["errors"]["dg_norm"] for r in stored])
    assert zone == [False] * 6 + [True] * 3            # plateau: p = 8, 9, 10
    recs = json.loads(json.dumps(stored))
    recs[-1]["errors"]["dg_norm"] *= 0.5
    assert all(ok for _, ok, _ in check_sweep("dg_q", recs, stored))
    recs[-1]["errors"]["dg_norm"] = 1e-9
    assert not all(ok for _, ok, _ in check_sweep("dg_q", recs, stored))


@pytest.mark.parametrize("change", ["nan", "message", "missing", "extra", "dof"])
def test_broken_records_fail(change):
    stored = GOLDEN["fem3d"]["records"]["sine3d_q"]
    recs = json.loads(json.dumps(stored))
    if change == "nan":
        recs[2]["errors"]["h1_semi"] = math.nan
    elif change == "message":
        recs[2]["error_message"] = "skeleton factorization failed"
    elif change == "missing":
        del recs[2]
    elif change == "extra":
        recs.append(dict(recs[-1], p=99))
    else:
        recs[2]["dof"] += 1
    assert sum(not ok for _, ok, _ in check_sweep("sine3d_q", recs, stored)) == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_matches_run_config_bitwise(workload, tmp_path):
    """The traced replay reproduces the config runner's records exactly
    (on the warm-up configs, which keep the test fast)."""
    from hpexp.harness import run_config
    from tracing import Replay, Tracer, layer_metrics
    cfg = warmup_config(workload)
    ran = {k: [plain_record(r) for r in v]
           for k, v in run_config(cfg, tmp_path).items()}
    replay = Replay(Tracer())
    assert json.dumps(replay.run(cfg), sort_keys=True) == \
        json.dumps(ran, sort_keys=True)
    metrics, _ = layer_metrics(replay)
    assert 0.0 < metrics["trace.coverage"] <= 1.0
